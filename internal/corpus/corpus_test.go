package corpus

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/diff"
	"repro/internal/subjects"
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

func mustPut(t testing.TB, s *Store, tr *trace.Trace) trace.Digest {
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

// dropDecoded empties the decoded-trace LRU, so the next Get of any
// trace is a disk-tier miss.
func dropDecoded(s *Store) {
	s.mu.Lock()
	s.traces = make(map[trace.Digest]*list.Element)
	s.traceLRU.Init()
	s.mu.Unlock()
}

// TestStaleSegmentIgnoredThenSweptAtOpen: a high-numbered segment left
// by an earlier failed attempt (e.g. under a smaller segment limit) is
// never opened by a load, since loads open exactly the segments the
// sidecar counts, and the next open sweeps it.
func TestStaleSegmentIgnoredThenSweptAtOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, Options{SegmentLimit: 16, VerifyOnLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := makeTrace("retry", 9, 40)
	tr.EnsureSyms()
	id := tr.ComputeDigest()
	stale := trace.SegmentPath(dir, id.String(), 99)
	if err := os.WriteFile(stale, []byte("junk from a failed put"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := mustPut(t, s, tr); got != id {
		t.Fatalf("digest mismatch: %s vs %s", got, id)
	}
	dropDecoded(s)
	if _, err := s.Get(id); err != nil {
		t.Fatalf("reload beside a stale segment: %v", err)
	}
	m, _ := s.Meta(id)
	if m.Segments != 3 { // 40 entries / 16 per segment
		t.Errorf("meta counts %d segments, want 3", m.Segments)
	}

	s2, err := New(dir, Options{VerifyOnLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Error("stale segment survived reopen")
	}
	if _, err := s2.Get(id); err != nil {
		t.Fatalf("reload after the sweep: %v", err)
	}
}

// TestPutCrashLeavesOldState simulates a crash at each write point of
// Put by copying the files a completed Put wrote, up to that point,
// into a store that holds one other trace. Reopening must show the old
// state — the other trace only, no orphan file of the new one — and a
// retried Put must then succeed.
func TestPutCrashLeavesOldState(t *testing.T) {
	src := t.TempDir()
	donor, err := New(src, Options{SegmentLimit: 16})
	if err != nil {
		t.Fatal(err)
	}
	tr := makeTrace("crashy", 7, 40) // 3 segments
	id := mustPut(t, donor, tr)
	seg := func(i int) string { return filepath.Base(trace.SegmentPath("", id.String(), i)) }
	metaRaw, err := os.ReadFile(donor.metaPath(id))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		point string
		files []string
		tmp   bool // the sidecar written under its temporary name
	}{
		{"after some segments", []string{seg(0), seg(1)}, false},
		{"after all segments", []string{seg(0), seg(1), seg(2)}, false},
		{"after the sketch", []string{seg(0), seg(1), seg(2), id.String() + ".sketch.json"}, false},
		{"before the meta sidecar", []string{seg(0), seg(1), seg(2), id.String() + ".sketch.json"}, true},
	} {
		t.Run(tc.point, func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(dir, Options{SegmentLimit: 16})
			if err != nil {
				t.Fatal(err)
			}
			old := mustPut(t, s, makeTrace("old", 8, 30))
			for _, f := range tc.files {
				copyFile(t, filepath.Join(src, f), filepath.Join(dir, f))
			}
			if tc.tmp {
				if err := os.WriteFile(filepath.Join(dir, id.String()+".meta.json.tmp"), metaRaw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			foreign := filepath.Join(dir, "notes.000001.seg")
			if err := os.WriteFile(foreign, []byte("not the store's"), 0o644); err != nil {
				t.Fatal(err)
			}

			s, err = New(dir, Options{SegmentLimit: 16, VerifyOnLoad: true})
			if err != nil {
				t.Fatal(err)
			}
			if ids := s.List(); len(ids) != 1 || ids[0].ID != old.String() {
				t.Fatalf("reopened store lists %v, want only %s", ids, old)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, id.String()+".*")); len(left) != 0 {
				t.Fatalf("orphans survived reopen: %v", left)
			}
			if _, err := os.Stat(foreign); err != nil {
				t.Errorf("sweep removed a file the store does not own: %v", err)
			}
			if _, err := s.Get(old); err != nil {
				t.Fatalf("old trace after crash: %v", err)
			}
			if got := mustPut(t, s, makeTrace("crashy", 7, 40)); got != id {
				t.Fatalf("retried Put stored %s, want %s", got, id)
			}
			dropDecoded(s)
			if _, err := s.Get(id); err != nil {
				t.Fatalf("Get after retried Put: %v", err)
			}
		})
	}
}

func copyFile(t testing.TB, from, to string) {
	t.Helper()
	raw, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsImplausibleSidecar: Meta.Segments decides how many
// files a load opens, so a sidecar whose counts no Put writes is
// refused at open with ErrInvalidSidecar.
func TestOpenRejectsImplausibleSidecar(t *testing.T) {
	id := makeTrace("x", 1, 5).ComputeDigest().String()
	for name, body := range map[string]string{
		"zero segments":          `{"id":"` + id + `","entries":5,"segments":0}`,
		"zero entries":           `{"id":"` + id + `","entries":0,"segments":1}`,
		"more segments than ent": `{"id":"` + id + `","entries":2,"segments":3}`,
		"negative":               `{"id":"` + id + `","entries":-1,"segments":-1}`,
		"other digest":           `{"id":"` + strings.Repeat("0", 64) + `","entries":5,"segments":1}`,
		"not json":               `{"id":`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, id+".meta.json"), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := New(dir, Options{}); !errors.Is(err, ErrInvalidSidecar) {
				t.Fatalf("New = %v, want ErrInvalidSidecar", err)
			}
		})
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

// BenchmarkCorpusScale measures a Get miss and a Put of a 300-entry
// trace against corpora of 1 and 1000 stored traces: per-trace disk
// paths open files by name, so neither may grow with the corpus.
func BenchmarkCorpusScale(b *testing.B) {
	for _, n := range []int{1, 1000} {
		dir := b.TempDir()
		s, err := New(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		var first trace.Digest
		for i := 0; i < n; i++ {
			id := mustPut(b, s, subjects.GenCorpusTrace(1+i%10, i, 300))
			if i == 0 {
				first = id
			}
		}
		b.Run(fmt.Sprintf("get-miss/traces=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dropDecoded(s)
				b.StartTimer()
				if _, err := s.Get(first); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("put/traces=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr := subjects.GenCorpusTrace(99, n+i, 300)
				b.StartTimer()
				mustPut(b, s, tr)
			}
		})
	}
}
