// Package lru is the one bounded cache of the serving path, behind the
// corpus's decoded-trace, view-web and disk-residency tiers, the
// engine's web cache and the server's finished-stream tombstones: a
// mutex-guarded least-recently-used map with a single-flight fill, Do.
package lru

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"repro/internal/metrics"
)

// errFillPanicked fails a fill whose load panicked; its waiters retry.
var errFillPanicked = errors.New("lru: fill panicked")

// Cache is a bounded LRU map from K to V. The zero value is not ready
// to use; construct one with New. All methods are safe for concurrent
// use.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int                 // 0: unbounded
	order *list.List          // of *entry[K, V], front = most recent
	items map[K]*list.Element // resident entries
	calls map[K]*call[V]      // in-flight fills

	hits, misses, waits, evictions int64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// call is one in-flight fill: done closes once v and err are set.
type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// New returns an empty cache holding at most capacity entries; 0 (or
// less) means unbounded.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{
		cap:   max(capacity, 0),
		order: list.New(),
		items: make(map[K]*list.Element),
		calls: make(map[K]*call[V]),
	}
}

// Get returns the value of k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Contains reports whether k is resident, without touching its recency.
func (c *Cache[K, V]) Contains(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[k]
	return ok
}

// Add stores v under k as the most recently used entry and returns the
// keys it evicted, least recent first, to stay within the capacity.
func (c *Cache[K, V]) Add(k K, v V) (evicted []K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addLocked(k, v)
}

func (c *Cache[K, V]) addLocked(k K, v V) (evicted []K) {
	if el, ok := c.items[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.order.MoveToFront(el)
		return nil
	}
	c.items[k] = c.order.PushFront(&entry[K, V]{key: k, val: v})
	for c.cap > 0 && c.order.Len() > c.cap {
		oldest := c.order.Remove(c.order.Back()).(*entry[K, V])
		delete(c.items, oldest.key)
		evicted = append(evicted, oldest.key)
		c.evictions++
	}
	return evicted
}

// Remove drops k, and the claim of any fill in flight for it: that
// fill still answers its callers but does not store its value.
func (c *Cache[K, V]) Remove(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.Remove(el)
		delete(c.items, k)
	}
	delete(c.calls, k)
}

// SetCap changes the capacity (0: unbounded). It evicts nothing: a
// cache above its new capacity sheds the excess at its next Add, so an
// owner can seed a cache past its bound and trim it later.
func (c *Cache[K, V]) SetCap(capacity int) {
	c.mu.Lock()
	c.cap = max(capacity, 0)
	c.mu.Unlock()
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Keys returns the resident keys, most recently used first.
func (c *Cache[K, V]) Keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]K, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[K, V]).key)
	}
	return keys
}

// Do returns the value of k, filling it with load on a miss. Concurrent
// misses on one key share one fill: the first caller runs load on its
// own goroutine under its own ctx, and the others wait for it. A fill
// that returns an error (a canceled ctx included) is not stored; each
// of its waiters whose ctx still lives then retries the fill, so no
// caller inherits another's cancellation. A waiter whose ctx ends
// returns ctx.Err() at once, leaving the fill running for the rest.
//
// Do counts one hit, miss (a load run) or wait per attempt; evictions
// count every entry Add or a fill pushed out.
func (c *Cache[K, V]) Do(ctx context.Context, k K, load func(context.Context) (V, error)) (V, error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		c.mu.Lock()
		if el, ok := c.items[k]; ok {
			c.order.MoveToFront(el)
			c.hits++
			v := el.Value.(*entry[K, V]).val
			c.mu.Unlock()
			return v, nil
		}
		if cl, ok := c.calls[k]; ok {
			c.waits++
			c.mu.Unlock()
			select {
			case <-cl.done:
				if cl.err == nil {
					return cl.v, nil
				}
				continue
			case <-ctx.Done():
				return zero, ctx.Err()
			}
		}
		cl := &call[V]{done: make(chan struct{})}
		c.calls[k] = cl
		c.misses++
		c.mu.Unlock()
		return c.fill(ctx, k, cl, load)
	}
}

// fill runs load for the call cl owns and publishes its result, even
// if load panics, so no waiter blocks forever.
func (c *Cache[K, V]) fill(ctx context.Context, k K, cl *call[V], load func(context.Context) (V, error)) (V, error) {
	cl.err = errFillPanicked
	defer func() {
		c.mu.Lock()
		if c.calls[k] == cl {
			delete(c.calls, k)
			if cl.err == nil {
				c.addLocked(k, cl.v)
			}
		}
		c.mu.Unlock()
		close(cl.done)
	}()
	cl.v, cl.err = load(ctx)
	return cl.v, cl.err
}

// Snapshot copies the counters with the current length and capacity,
// and returns apart the waits: the Do calls that waited on another
// caller's fill.
func (c *Cache[K, V]) Snapshot() (s metrics.CacheSnapshot, waits int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s = metrics.CacheSnapshot{
		Len:       c.order.Len(),
		Cap:       c.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRatio = float64(s.Hits) / float64(total)
	}
	return s, c.waits
}
