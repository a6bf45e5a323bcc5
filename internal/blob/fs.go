package blob

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/atomicfile"
)

// FS is the local-directory backend: every object is one file under
// the root, the key encoded as an escaped file name. It doubles as the
// shared-NFS deployment and the zero-dependency local default.
type FS struct {
	dir string
}

// NewFS opens (or creates) a directory-backed store.
func NewFS(dir string) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	return &FS{dir: dir}, nil
}

// escape maps an object key to a safe flat file name. Corpus keys are
// digest-derived (hex, dots, an optional operator prefix with
// slashes); slashes become a rare unicode-safe escape so one object is
// always one file and List never needs to walk a tree.
func escape(key string) string {
	return strings.ReplaceAll(key, "/", "%2F")
}

func unescape(name string) string {
	return strings.ReplaceAll(name, "%2F", "/")
}

func (f *FS) path(key string) string { return filepath.Join(f.dir, escape(key)) }

// Put writes atomically (atomicfile.Write), so a reader (or a crash)
// never observes a half-written object.
func (f *FS) Put(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := atomicfile.Write(f.path(key), data); err != nil {
		return fmt.Errorf("blob: %w", err)
	}
	return nil
}

func (f *FS) Get(ctx context.Context, key string) (io.ReadCloser, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rc, err := os.Open(f.path(key))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, fmt.Errorf("blob: %w", err)
	}
	return rc, nil
}

func (f *FS) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := os.Remove(f.path(key)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("blob: %w", err)
	}
	return nil
}

func (f *FS) List(ctx context.Context, prefix string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	var out []string
	for _, e := range ents {
		// A crashed Put's temp file (".put-*" before) is no object.
		if e.IsDir() || atomicfile.IsTemp(e.Name()) || strings.HasPrefix(e.Name(), ".put-") {
			continue
		}
		key := unescape(e.Name())
		if strings.HasPrefix(key, prefix) {
			out = append(out, key)
		}
	}
	return sortKeys(out), nil
}
