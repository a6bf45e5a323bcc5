// Package blob is the pluggable object-store tier under the trace
// corpus: a minimal key/value backend holding the same files the disk
// tier does (segments, meta sidecars, sketch sidecars), addressed by
// flat string keys.
//
// Three implementations ship:
//
//   - FS: a local directory — the shared-filesystem deployment, and the
//     zero-dependency default for single-machine clusters;
//   - S3: an S3-compatible HTTP client speaking path-style requests
//     (minio, Ceph RGW, AWS) with optional SigV4 signing — no SDK
//     dependency;
//   - Mem: an in-memory map with fault injection, for tests.
//
// Backends are deliberately dumb: no retries, no prefixing, no
// tiering. WithRetry layers the repo-wide transient-failure policy
// (internal/retry) over any backend; internal/corpus owns key layout
// and the read-through/write-through logic.
package blob

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ErrNotFound reports a key the backend does not hold. Implementations
// wrap it so errors.Is works across backends, and WithRetry treats it
// as permanent.
var ErrNotFound = errors.New("blob: key not found")

// Backend is a minimal object store. Implementations must be safe for
// concurrent use. Keys are flat opaque strings (the corpus uses
// "<prefix><digest>.<n>.seg" and sidecar names); values are immutable
// once put — the corpus is content-addressed, so overwriting a key
// with different bytes never happens in correct operation.
type Backend interface {
	// Put stores data under key, overwriting any existing object.
	Put(ctx context.Context, key string, data []byte) error
	// Get opens a streaming reader over the object. The caller must
	// close it. A missing key wraps ErrNotFound.
	Get(ctx context.Context, key string) (io.ReadCloser, error)
	// Delete removes the object. Deleting a missing key is not an error
	// (S3 semantics).
	Delete(ctx context.Context, key string) error
	// List returns the keys beginning with prefix, sorted.
	List(ctx context.Context, prefix string) ([]string, error)
}

// GetBytes fetches a whole object. Small sidecars and bounded segment
// files are read this way; the streaming Get remains for anything
// bigger.
func GetBytes(ctx context.Context, b Backend, key string) ([]byte, error) {
	rc, err := b.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// Config is the operator-facing description of a backend, the
// flag/env surface of rprism-serve (-blob-bucket, -blob-endpoint, …).
type Config struct {
	// Bucket selects the backend. Three spellings:
	//
	//	mybucket        an S3 bucket (requires Endpoint)
	//	fs:///var/blob  a local directory backend
	//	mem://          an in-memory backend (testing)
	//
	// Empty means no blob tier.
	Bucket string
	// Endpoint is the S3-compatible service URL (e.g.
	// http://127.0.0.1:9000 for a local minio). Required for bucket
	// backends, ignored otherwise.
	Endpoint string
	// AccessKey/SecretKey enable SigV4 request signing. Empty sends
	// unsigned path-style requests (minio stubs, anonymous buckets).
	AccessKey string
	SecretKey string
	// Region is the SigV4 signing region (default "us-east-1").
	Region string
}

// Open builds the configured backend, or (nil, nil) when no blob tier
// is configured.
func (c Config) Open() (Backend, error) {
	switch {
	case c.Bucket == "":
		return nil, nil
	case c.Bucket == "mem://":
		return NewMem(), nil
	case strings.HasPrefix(c.Bucket, "fs://"):
		dir := strings.TrimPrefix(c.Bucket, "fs://")
		if dir == "" {
			return nil, fmt.Errorf("blob: fs:// bucket needs a path (fs:///var/rprism-blob)")
		}
		return NewFS(dir)
	default:
		if c.Endpoint == "" {
			return nil, fmt.Errorf("blob: bucket %q needs an S3 endpoint (-blob-endpoint or fs://path)", c.Bucket)
		}
		return NewS3(S3Options{
			Endpoint:  c.Endpoint,
			Bucket:    c.Bucket,
			AccessKey: c.AccessKey,
			SecretKey: c.SecretKey,
			Region:    c.Region,
		})
	}
}

// sortKeys is the shared List postcondition.
func sortKeys(keys []string) []string {
	sort.Strings(keys)
	return keys
}
