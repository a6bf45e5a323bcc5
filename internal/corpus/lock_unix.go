//go:build unix && !aix && !solaris

package corpus

import (
	"os"
	"syscall"
)

const lockShared, lockExclusive, lockRelease = syscall.LOCK_SH, syscall.LOCK_EX | syscall.LOCK_NB, syscall.LOCK_UN

// flock applies an advisory flock(2) operation to the store's lock
// file (a nil file fails with EBADF).
func flock(f *os.File, how int) error { return syscall.Flock(int(f.Fd()), how) }
