package blob

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Op names one backend operation, for fault-injection hooks.
type Op string

// The operations a fault hook can intercept.
const (
	OpPut    Op = "put"
	OpGet    Op = "get"
	OpStat   Op = "stat"
	OpDelete Op = "delete"
	OpList   Op = "list"
)

// Mem is the in-memory, fault-injectable backend behind the test
// suites: a mutex-guarded map plus two fault mechanisms — a
// transient-burst counter (FailNext: the next n operations fail with a
// retryable error, simulating a 5xx burst or a flapping network) and
// an arbitrary per-operation hook (SetFault: return any error,
// including retry.Permanent-wrapped ones, or nil to let the call
// through).
type Mem struct {
	mu      sync.Mutex
	objects map[string][]byte
	failN   int
	fault   func(op Op, key string) error
	ops     int64
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem {
	return &Mem{objects: make(map[string][]byte)}
}

// FailNext makes the next n operations fail with a transient error.
func (m *Mem) FailNext(n int) {
	m.mu.Lock()
	m.failN = n
	m.mu.Unlock()
}

// SetFault installs a per-operation hook consulted before every call;
// nil clears it. The hook runs with no lock held on the object map.
func (m *Mem) SetFault(f func(op Op, key string) error) {
	m.mu.Lock()
	m.fault = f
	m.mu.Unlock()
}

// Ops returns the number of operations attempted (including faulted
// ones) — the retry assertions in tests count calls with it.
func (m *Mem) Ops() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// Len returns the number of stored objects.
func (m *Mem) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.objects)
}

// check consumes one fault, if armed.
func (m *Mem) check(op Op, key string) error {
	m.mu.Lock()
	m.ops++
	fault := m.fault
	if m.failN > 0 {
		m.failN--
		m.mu.Unlock()
		return fmt.Errorf("blob: injected transient failure (%s %s)", op, key)
	}
	m.mu.Unlock()
	if fault != nil {
		return fault(op, key)
	}
	return nil
}

func (m *Mem) Put(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := m.check(OpPut, key); err != nil {
		return err
	}
	cp := append([]byte(nil), data...)
	m.mu.Lock()
	m.objects[key] = cp
	m.mu.Unlock()
	return nil
}

func (m *Mem) Get(ctx context.Context, key string) (io.ReadCloser, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := m.check(OpGet, key); err != nil {
		return nil, err
	}
	m.mu.Lock()
	data, ok := m.objects[key]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// Stat returns the size of the object under key. Backend has no Stat,
// since no corpus path needs one; perfbench sums the bytes of its
// in-memory bucket with this method.
func (m *Mem) Stat(ctx context.Context, key string) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := m.check(OpStat, key); err != nil {
		return 0, err
	}
	m.mu.Lock()
	data, ok := m.objects[key]
	m.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return int64(len(data)), nil
}

func (m *Mem) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := m.check(OpDelete, key); err != nil {
		return err
	}
	m.mu.Lock()
	delete(m.objects, key)
	m.mu.Unlock()
	return nil
}

func (m *Mem) List(ctx context.Context, prefix string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := m.check(OpList, prefix); err != nil {
		return nil, err
	}
	m.mu.Lock()
	var out []string
	for k := range m.objects {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	m.mu.Unlock()
	return sortKeys(out), nil
}
