package blob

import (
	"context"
	"errors"
	"io"

	"repro/internal/retry"
)

// WithRetry layers the repo-wide transient-failure policy over a
// backend: transport errors and 5xx-class failures retry under
// jittered exponential backoff (the capture stream client's policy,
// extracted into internal/retry); ErrNotFound and retry.Permanent-
// marked errors fail fast. onRetry, if non-nil, is invoked once per
// re-attempt — the corpus feeds its retry counter with it.
//
// Get retries the open, not the streamed read: a reader that fails
// mid-stream surfaces to the caller, whose own read loop decides
// (corpus hydration re-requests the whole object).
func WithRetry(b Backend, p retry.Policy, onRetry func()) Backend {
	return &retrying{b: b, policy: p, onRetry: onRetry}
}

type retrying struct {
	b       Backend
	policy  retry.Policy
	onRetry func()
}

// do runs op under the policy, classifying ErrNotFound as permanent
// so a missing object is not hammered Attempts times.
func (r *retrying) do(ctx context.Context, op func() error) error {
	first := true
	return r.policy.Do(ctx, func() error {
		if !first && r.onRetry != nil {
			r.onRetry()
		}
		first = false
		err := op()
		if errors.Is(err, ErrNotFound) {
			return retry.Permanent(err)
		}
		return err
	})
}

func (r *retrying) Put(ctx context.Context, key string, data []byte) error {
	return r.do(ctx, func() error { return r.b.Put(ctx, key, data) })
}

func (r *retrying) Get(ctx context.Context, key string) (io.ReadCloser, error) {
	var rc io.ReadCloser
	err := r.do(ctx, func() error {
		var err error
		rc, err = r.b.Get(ctx, key)
		return err
	})
	return rc, err
}

func (r *retrying) Delete(ctx context.Context, key string) error {
	return r.do(ctx, func() error { return r.b.Delete(ctx, key) })
}

func (r *retrying) List(ctx context.Context, prefix string) ([]string, error) {
	var keys []string
	err := r.do(ctx, func() error {
		var err error
		keys, err = r.b.List(ctx, prefix)
		return err
	})
	return keys, err
}
