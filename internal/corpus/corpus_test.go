package corpus

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/diff"
	"repro/internal/trace"
)

// makeTrace builds an interned test trace whose content varies with seed.
func makeTrace(name string, seed, n int) *trace.Trace {
	t := trace.New(name)
	for i := 0; i < n; i++ {
		obj := trace.Repr{Loc: trace.Loc(i%11 + 1), Class: "Cell", Seq: i%11 + 1}
		val := trace.Repr{Class: "Int", Hash: uint64(seed*1000 + i), Str: fmt.Sprintf("%d", seed*1000+i)}
		t.Append(trace.ThreadID(i%2+1), fmt.Sprintf("Cell.op%d/1", i%4), obj,
			trace.Event{Kind: trace.KindCall, Target: obj,
				Member: fmt.Sprintf("Cell.op%d/1", i%4), Args: []trace.Repr{val}})
	}
	return t
}

func mustPut(t *testing.T, s *Store, tr *trace.Trace) trace.Digest {
	t.Helper()
	id, _, err := s.Put(tr)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := New(t.TempDir(), Options{SegmentLimit: 16, VerifyOnLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := makeTrace("alpha", 1, 50)
	id := mustPut(t, s, tr)

	got, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 50 || got.Name != "alpha" {
		t.Fatalf("Get returned %q with %d entries", got.Name, got.Len())
	}
	m, err := s.Meta(id)
	if err != nil {
		t.Fatal(err)
	}
	// 50 entries / 16 per segment = 4 segments.
	if m.Entries != 50 || m.Segments != 4 || m.Name != "alpha" {
		t.Errorf("meta = %+v", m)
	}
	if _, err := s.Get(trace.Digest{1}); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get of unknown id: %v", err)
	}
}

func TestPutDeduplicatesByContent(t *testing.T) {
	s, err := New(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, created, err := s.Put(makeTrace("first", 7, 30))
	if err != nil || !created {
		t.Fatalf("first Put: created=%v err=%v", created, err)
	}
	b, created, err := s.Put(makeTrace("second-name-same-content", 7, 30))
	if err != nil || created {
		t.Fatalf("duplicate Put: created=%v err=%v", created, err)
	}
	if a != b {
		t.Fatalf("identical content got two ids: %s vs %s", a, b)
	}
	if s.Len() != 1 {
		t.Errorf("store holds %d traces, want 1", s.Len())
	}
	if st := s.Stats(); st.Dedups != 1 {
		t.Errorf("stats.Dedups = %d, want 1", st.Dedups)
	}
	// The first-seen name wins.
	m, _ := s.Meta(a)
	if m.Name != "first" {
		t.Errorf("dedup kept name %q", m.Name)
	}
}

func TestReopenIndexesDisk(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := mustPut(t, s1, makeTrace("persist", 3, 40))

	s2, err := New(dir, Options{VerifyOnLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened store indexes %d traces, want 1", s2.Len())
	}
	got, err := s2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 40 || got.Name != "persist" {
		t.Errorf("reloaded %q with %d entries", got.Name, got.Len())
	}
	if got.ComputeDigest() != id {
		t.Error("reloaded trace digest mismatch")
	}
}

func TestTraceLRUEviction(t *testing.T) {
	s, err := New(t.TempDir(), Options{TraceCacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]trace.Digest, 4)
	for i := range ids {
		ids[i] = mustPut(t, s, makeTrace(fmt.Sprintf("t%d", i), i, 20))
	}
	st := s.Stats()
	if st.TraceCacheLen != 2 {
		t.Errorf("trace cache holds %d, want 2", st.TraceCacheLen)
	}
	if st.Evictions == 0 {
		t.Error("no evictions recorded")
	}
	// Every trace is still resolvable from the disk tier.
	for i, id := range ids {
		tr, err := s.Get(id)
		if err != nil {
			t.Fatalf("Get(%d) after eviction: %v", i, err)
		}
		if tr.Len() != 20 {
			t.Errorf("trace %d reloaded with %d entries", i, tr.Len())
		}
	}
	if st := s.Stats(); st.TraceCache.Misses == 0 {
		t.Error("evicted Gets did not count disk loads")
	}
}

func TestViewsMemoizedAndSingleFlight(t *testing.T) {
	s, err := New(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := mustPut(t, s, makeTrace("webs", 5, 200))

	// Fan out: many goroutines ask for the same web at once.
	const G = 16
	webs := make([]any, G)
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w, err := s.Views(id)
			if err != nil {
				t.Error(err)
				return
			}
			webs[g] = w
		}(g)
	}
	wg.Wait()
	for g := 1; g < G; g++ {
		if webs[g] != webs[0] {
			t.Fatal("concurrent Views returned distinct webs")
		}
	}
	st := s.Stats()
	if st.WebCache.Misses != 1 {
		t.Errorf("web built %d times under concurrency, want 1 (single-flight)", st.WebCache.Misses)
	}
	if st.WebCache.Hits+st.WebWaits != G-1 {
		t.Errorf("hits(%d)+waits(%d) != %d", st.WebCache.Hits, st.WebWaits, G-1)
	}

	// A later call is a plain memo hit.
	if _, err := s.Views(id); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WebCache.Misses != 1 {
		t.Errorf("memoized web rebuilt: %d builds", st.WebCache.Misses)
	}
}

func TestViewsEvictionRebuilds(t *testing.T) {
	s, err := New(t.TempDir(), Options{WebCacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := mustPut(t, s, makeTrace("a", 1, 30))
	b := mustPut(t, s, makeTrace("b", 2, 30))
	if _, err := s.Views(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Views(b); err != nil { // evicts a's web
		t.Fatal(err)
	}
	if _, err := s.Views(a); err != nil { // rebuild
		t.Fatal(err)
	}
	if st := s.Stats(); st.WebCache.Misses != 3 {
		t.Errorf("builds = %d, want 3 (evicted web rebuilt)", st.WebCache.Misses)
	}
}

func TestPutRejectsNonDenseEIDs(t *testing.T) {
	s, err := New(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := makeTrace("evil", 1, 10)
	tr.Entries[4].EID = 999999 // crafted upload: views.Build would index out of range
	if _, _, err := s.Put(tr); !errors.Is(err, ErrInvalidTrace) {
		t.Fatalf("Put accepted non-dense EIDs: %v", err)
	}
	if s.Len() != 0 {
		t.Error("invalid trace was admitted")
	}
}

func TestPutClearsStaleSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, Options{TraceCacheSize: 1, SegmentLimit: 16, VerifyOnLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a failed earlier attempt (e.g. under a smaller segment
	// limit): orphaned high-numbered segments with no meta sidecar.
	tr := makeTrace("retry", 9, 40)
	tr.EnsureSyms()
	id := tr.ComputeDigest()
	stale := filepath.Join(dir, id.String()+".000099.seg")
	if err := os.WriteFile(stale, []byte("junk from a failed put"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := mustPut(t, s, tr); got != id {
		t.Fatalf("digest mismatch: %s vs %s", got, id)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Error("stale segment survived Put")
	}
	// Push the trace out of the LRU and reload from disk: the stored
	// segments must reassemble (and re-verify) cleanly.
	mustPut(t, s, makeTrace("filler", 10, 20))
	if _, err := s.Get(id); err != nil {
		t.Fatalf("reload after stale-segment cleanup: %v", err)
	}
	m, _ := s.Meta(id)
	if m.Segments != 3 { // 40 entries / 16 per segment
		t.Errorf("meta counts %d segments, want 3", m.Segments)
	}
}

func TestViewsUnknownID(t *testing.T) {
	s, err := New(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Views(trace.Digest{9}); !errors.Is(err, ErrNotFound) {
		t.Errorf("Views of unknown id: %v", err)
	}
}

func TestDelete(t *testing.T) {
	s, err := New(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := mustPut(t, s, makeTrace("gone", 4, 25))
	if _, err := s.Views(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Delete: %v", err)
	}
	if err := s.Delete(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Delete: %v", err)
	}
	// The disk tier is gone too: a reopened store sees nothing.
	s2, err := New(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 {
		t.Errorf("reopened store still indexes %d traces", s2.Len())
	}
}

// TestConcurrentMixedWorkload hammers every public method at once; run
// under -race this is the store's race-cleanliness proof.
func TestConcurrentMixedWorkload(t *testing.T) {
	s, err := New(t.TempDir(), Options{TraceCacheSize: 2, WebCacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]trace.Digest, 5)
	for i := range ids {
		ids[i] = mustPut(t, s, makeTrace(fmt.Sprintf("w%d", i), i, 60))
	}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				id := ids[(g+round)%len(ids)]
				switch round % 4 {
				case 0:
					if _, err := s.Get(id); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := s.Views(id); err != nil {
						t.Error(err)
					}
				case 2:
					wl, err1 := s.Views(ids[round%len(ids)])
					wr, err2 := s.Views(ids[(round+1)%len(ids)])
					if err1 != nil || err2 != nil {
						t.Error(err1, err2)
						return
					}
					diff.ViewDiffWebs(wl, wr, diff.ViewOptions{})
				case 3:
					s.Stats()
					s.List()
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestGetRejectsTruncatedDiskTier(t *testing.T) {
	// The store must stay strict where the capture-recovery loader is
	// forgiving: a stored trace whose trailing segment was truncated on
	// disk is corruption, and Get must fail rather than serve a silent
	// prefix that no longer matches its digest.
	dir := t.TempDir()
	store, err := New(dir, Options{SegmentLimit: 10})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("multi")
	for i := 0; i < 35; i++ {
		obj := trace.Repr{Loc: trace.Loc(1 + i%5), Class: "C", Seq: 1 + i%5}
		tr.Append(0, "C.m/0", obj, trace.Event{Kind: trace.KindCall, Target: obj, Member: "C.m/0"})
	}
	id, _, err := store.Put(tr)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, id.String()+".*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want multiple segments, got %v (err %v)", segs, err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Fresh store over the same dir: the decoded-trace LRU is cold, so
	// Get must hit the (corrupted) disk tier.
	reopened, err := New(dir, Options{SegmentLimit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.Get(id); err == nil {
		t.Fatal("Get served a trace whose trailing segment is truncated")
	}
}

// benchCorpusTrace builds a loop-heavy trace with a bounded symbol
// vocabulary — the workload shape the paper's subject programs produce,
// and the one the disk tier serves in practice.
func benchCorpusTrace(threads, per int) *trace.Trace {
	t := trace.New("bench-corpus")
	for tid := 1; tid <= threads; tid++ {
		for i := 0; i < per; i++ {
			obj := trace.Repr{Loc: trace.Loc(i%97 + 1), Class: "Worker", Seq: i % 500}
			val := trace.Repr{Class: "Int", Hash: uint64(i % 1000), Str: fmt.Sprintf("%d", i%1000)}
			t.Append(trace.ThreadID(tid), fmt.Sprintf("Worker.step%d/1", i%40), obj,
				trace.Event{Kind: trace.KindCall, Target: obj,
					Member: fmt.Sprintf("Worker.step%d/1", i%40), Args: []trace.Repr{val}})
		}
	}
	return t
}

// BenchmarkCorpusGetCold measures a cache-miss Get: a fresh store over
// the corpus directory, so every iteration pays the full disk-tier load
// of the RSEG segments (the decoded-trace LRU never helps).
func BenchmarkCorpusGetCold(b *testing.B) {
	dir := b.TempDir()
	s, err := New(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	id, _, err := s.Put(benchCorpusTrace(8, 2500))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold, err := New(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		tr, err := cold.Get(id)
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() != 8*2500 {
			b.Fatalf("loaded %d entries", tr.Len())
		}
	}
}
