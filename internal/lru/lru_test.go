package lru

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestOrderAndEviction(t *testing.T) {
	c := New[string, int](2)
	if ev := c.Add("a", 1); ev != nil {
		t.Fatalf("Add(a) evicted %v", ev)
	}
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 { // a is now the most recent
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if ev := c.Add("c", 3); !slices.Equal(ev, []string{"b"}) {
		t.Fatalf("Add(c) evicted %v, want [b]", ev)
	}
	if got := c.Keys(); !slices.Equal(got, []string{"c", "a"}) {
		t.Fatalf("Keys = %v, want [c a]", got)
	}
	// Contains does not touch: a stays least recent and goes next.
	if !c.Contains("a") || c.Contains("b") {
		t.Fatal("Contains disagrees with the resident set")
	}
	if ev := c.Add("d", 4); !slices.Equal(ev, []string{"a"}) {
		t.Fatalf("Add(d) evicted %v, want [a]", ev)
	}
	// Re-adding a resident key updates it and evicts nothing.
	if ev := c.Add("c", 30); ev != nil {
		t.Fatalf("re-Add(c) evicted %v", ev)
	}
	if v, _ := c.Get("c"); v != 30 {
		t.Fatalf("Get(c) = %d, want 30", v)
	}
	c.Remove("c")
	if c.Len() != 1 || c.Contains("c") {
		t.Fatalf("after Remove: Len %d, keys %v", c.Len(), c.Keys())
	}
	if s, _ := c.Snapshot(); s.Evictions != 2 || s.Cap != 2 || s.Len != 1 {
		t.Fatalf("snapshot %+v, want 2 evictions, cap 2, len 1", s)
	}
}

func TestUnboundedAndSetCap(t *testing.T) {
	c := New[int, struct{}](0)
	for i := range 5 {
		if ev := c.Add(i, struct{}{}); ev != nil {
			t.Fatalf("unbounded cache evicted %v", ev)
		}
	}
	// Lowering the bound evicts nothing until the next Add, which trims
	// to the bound least recent first.
	c.SetCap(2)
	if c.Len() != 5 {
		t.Fatalf("SetCap evicted: Len %d", c.Len())
	}
	if ev := c.Add(5, struct{}{}); !slices.Equal(ev, []int{0, 1, 2, 3}) {
		t.Fatalf("Add after SetCap evicted %v, want [0 1 2 3]", ev)
	}
}

func TestDoLoadsOncePerKey(t *testing.T) {
	c := New[int, *int](0)
	const G = 32
	var loads atomic.Int64
	release := make(chan struct{})
	results := make([]*int, G)
	var wg sync.WaitGroup
	for g := range G {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do(context.Background(), 7, func(context.Context) (*int, error) {
				loads.Add(1)
				<-release
				n := 7
				return &n, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[g] = v
		}()
	}
	// Let every caller reach the cache before the one load finishes.
	for {
		if s, waits := c.Snapshot(); s.Misses+waits == G {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("%d loads for one key, want 1", n)
	}
	for g := range G {
		if results[g] != results[0] {
			t.Fatal("callers got distinct values")
		}
	}
	if s, waits := c.Snapshot(); s.Misses != 1 || waits != G-1 {
		t.Fatalf("misses %d waits %d, want 1 and %d", s.Misses, waits, G-1)
	}
	if _, err := c.Do(context.Background(), 7, nil); err != nil { // a hit never calls load
		t.Fatal(err)
	}
	if s, _ := c.Snapshot(); s.Hits != 1 {
		t.Fatalf("hits %d, want 1", s.Hits)
	}
}

func TestDoDoesNotMemoizeFailure(t *testing.T) {
	c := New[string, int](0)
	boom := errors.New("boom")
	calls := 0
	load := func(context.Context) (int, error) {
		calls++
		if calls == 1 {
			return 0, boom
		}
		return 42, nil
	}
	if _, err := c.Do(context.Background(), "k", load); !errors.Is(err, boom) {
		t.Fatalf("first Do: %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed fill was stored")
	}
	if v, err := c.Do(context.Background(), "k", load); err != nil || v != 42 {
		t.Fatalf("second Do = %d, %v; want 42", v, err)
	}
	if calls != 2 {
		t.Fatalf("load ran %d times, want 2", calls)
	}
}

// A first caller canceled mid-fill aborts its own load; a waiter whose
// context lives retries and succeeds with a load of its own.
func TestDoCanceledFillerLiveWaiterSucceeds(t *testing.T) {
	c := New[string, int](0)
	ctx1, cancel1 := context.WithCancel(context.Background())
	started := make(chan struct{})
	var loads atomic.Int64
	load := func(ctx context.Context) (int, error) {
		if loads.Add(1) == 1 {
			close(started)
			<-ctx.Done() // the load honours its caller's context
			return 0, ctx.Err()
		}
		return 9, nil
	}
	firstErr := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx1, "k", load)
		firstErr <- err
	}()
	<-started
	waiter := make(chan int, 1)
	go func() {
		v, err := c.Do(context.Background(), "k", load)
		if err != nil {
			t.Error(err)
		}
		waiter <- v
	}()
	for waitsOf(c) == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel1()
	if err := <-firstErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled filler: %v", err)
	}
	if v := <-waiter; v != 9 {
		t.Fatalf("live waiter got %d, want 9", v)
	}
	if loads.Load() != 2 {
		t.Fatalf("%d loads, want 2 (the canceled one and the retry)", loads.Load())
	}
	if v, ok := c.Get("k"); !ok || v != 9 {
		t.Fatal("retried fill was not stored")
	}
}

// A waiter whose context ends returns at once, while the fill it waited
// on runs on and is stored for later callers.
func TestDoCanceledWaiterReturnsPromptly(t *testing.T) {
	c := New[string, int](0)
	started, release := make(chan struct{}), make(chan struct{})
	filled := make(chan struct{})
	go func() {
		defer close(filled)
		c.Do(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, "k", nil)
		done <- err
	}()
	for waitsOf(c) == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled waiter: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter still blocked on the fill")
	}
	close(release)
	<-filled
	if v, ok := c.Get("k"); !ok || v != 1 {
		t.Fatal("the fill was not stored after its waiter left")
	}
}

// Remove during a fill drops the fill's claim: its value answers its
// callers but is not stored.
func TestRemoveDropsFillInFlight(t *testing.T) {
	c := New[string, int](0)
	v, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
		c.Remove("k")
		return 5, nil
	})
	if err != nil || v != 5 {
		t.Fatalf("Do = %d, %v", v, err)
	}
	if c.Contains("k") {
		t.Fatal("a fill removed in flight was stored")
	}
}

// A panicking load releases its waiters, which retry.
func TestDoPanickingLoadReleasesWaiters(t *testing.T) {
	c := New[string, int](0)
	started, release := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.Do(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-release
			panic("load failed")
		})
	}()
	<-started
	done := make(chan int, 1)
	go func() {
		v, _ := c.Do(context.Background(), "k", func(context.Context) (int, error) { return 3, nil })
		done <- v
	}()
	for waitsOf(c) == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if v := <-done; v != 3 {
		t.Fatalf("waiter got %d after a panicked fill, want 3", v)
	}
}

// waitsOf reads the waits count of c.
func waitsOf[K comparable, V any](c *Cache[K, V]) int64 {
	_, w := c.Snapshot()
	return w
}
