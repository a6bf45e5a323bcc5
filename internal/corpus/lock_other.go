//go:build !unix || aix || solaris

package corpus

import (
	"errors"
	"os"
)

const lockShared, lockExclusive, lockRelease = 0, 1, 2

// flock without flock(2): the exclusive lock is never granted, so New
// never sweeps, and writes need only an open lock file.
func flock(f *os.File, how int) error {
	if f == nil || how == lockExclusive {
		return errors.ErrUnsupported
	}
	return nil
}
