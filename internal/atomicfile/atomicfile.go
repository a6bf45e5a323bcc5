// Package atomicfile is the one write path of the corpus, the blob FS
// backend, trace saves and rprism convert: a file holds its whole old
// content or its whole new content, never a mix. No fsync is issued, so
// a process crash is covered and a power loss is not.
package atomicfile

import (
	"os"
	"path/filepath"
	"strings"
)

// tempMark separates the target's base name from the random suffix in
// a temp file's name: <base>.tmp-<digits>.
const tempMark = ".tmp-"

// Write writes data to a temp file in path's directory, closes it and
// renames it onto path. On any failure the temp file is removed and path
// keeps what it held.
func Write(path string, data []byte) (err error) {
	f, err := createTemp(path)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(f.Name())
		}
	}()
	// os.CreateTemp makes the file 0600; keep os.WriteFile's 0644.
	if err = f.Chmod(0o644); err == nil {
		_, err = f.Write(data)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

func createTemp(path string) (*os.File, error) {
	return os.CreateTemp(filepath.Dir(path), filepath.Base(path)+tempMark+"*")
}

// IsTemp reports whether a base file name is one of Write's temp files,
// which a crashed Write leaves behind.
func IsTemp(name string) bool {
	i := strings.LastIndex(name, tempMark) + len(tempMark)
	return i > len(tempMark) && i < len(name) && strings.Trim(name[i:], "0123456789") == ""
}
