package corpus

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/diff"
	"repro/internal/index"
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
	s, err := New(t.TempDir(), Options{VerifyOnLoad: true})
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
	if m.Entries != 50 || m.Segments != 1 || m.Name != "alpha" {
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
	if st.TraceCache.Len != 2 {
		t.Errorf("trace cache holds %d, want 2", st.TraceCache.Len)
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

// TestGetSingleFlightsDecode: concurrent misses on one trace decode it
// once and share the decoded trace.
func TestGetSingleFlightsDecode(t *testing.T) {
	s, err := New(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := mustPut(t, s, makeTrace("get", 3, 2000))
	dropDecoded(s)
	before := s.Stats().TraceCache.Misses
	const G = 16
	got := make([]*trace.Trace, G)
	var wg sync.WaitGroup
	for g := range G {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := s.Get(id)
			if err != nil {
				t.Error(err)
			}
			got[g] = tr
		}()
	}
	wg.Wait()
	if n := s.Stats().TraceCache.Misses - before; n != 1 {
		t.Errorf("%d decodes under concurrency, want 1 (single-flight)", n)
	}
	for g := 1; g < G; g++ {
		if got[g] != got[0] {
			t.Fatal("concurrent Gets returned distinct traces")
		}
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
			w, err := s.ViewsCtx(context.Background(), id)
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
	if _, err := s.ViewsCtx(context.Background(), id); err != nil {
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
	if _, err := s.ViewsCtx(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ViewsCtx(context.Background(), b); err != nil { // evicts a's web
		t.Fatal(err)
	}
	if _, err := s.ViewsCtx(context.Background(), a); err != nil { // rebuild
		t.Fatal(err)
	}
	if st := s.Stats(); st.WebCache.Misses != 3 {
		t.Errorf("builds = %d, want 3 (evicted web rebuilt)", st.WebCache.Misses)
	}
}

// TestViewsCtxCanceledBuildIsNotKept: a web build runs under its
// caller's context. Canceled while it waits on the trace tier, it
// returns the context's error and leaves nothing in the web tier; the
// next caller builds.
func TestViewsCtxCanceledBuildIsNotKept(t *testing.T) {
	s, err := New(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := mustPut(t, s, makeTrace("cancel", 4, 50))
	dropDecoded(s)
	// Hold the trace tier's fill of id, so the build below waits on it.
	held, release := make(chan struct{}), make(chan struct{})
	go s.traces.Do(context.Background(), id, func(context.Context) (*trace.Trace, error) {
		close(held)
		<-release
		return nil, errors.New("held fill released")
	})
	<-held
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.ViewsCtx(ctx, id)
		done <- err
	}()
	for _, waits := s.traces.Snapshot(); waits == 0; _, waits = s.traces.Snapshot() {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled ViewsCtx: %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("canceled ViewsCtx still waits on the trace tier")
	}
	if st := s.Stats(); st.WebCache.Len != 0 {
		t.Fatalf("web tier holds %d webs after a canceled build, want 0", st.WebCache.Len)
	}
	close(release)
	if _, err := s.ViewsCtx(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WebCache.Misses != 2 || st.WebCache.Len != 1 {
		t.Errorf("builds %d, resident %d; want 2 and 1", st.WebCache.Misses, st.WebCache.Len)
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
	for _, id := range s.traces.Keys() {
		s.traces.Remove(id)
	}
}

// TestStaleSegmentIgnoredThenSweptAtOpen: a high-numbered segment left
// beside a trace (say by an interrupted merge of an earlier release's
// segments) is never opened by a load, since loads open the trace's one
// file by name, and the next open sweeps it.
func TestStaleSegmentIgnoredThenSweptAtOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, Options{VerifyOnLoad: true})
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
	if m.Segments != 1 {
		t.Errorf("meta counts %d segments, want 1", m.Segments)
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
// into a store that holds one other trace. Put writes the trace file,
// then the sketch, then the meta sidecar, each through a temp file
// renamed into place; a crash mid-write leaves the temp. Reopening must
// show the old state — the other trace only, no orphan file of the new
// one — and a retried Put must then succeed.
func TestPutCrashLeavesOldState(t *testing.T) {
	src := t.TempDir()
	donor, err := New(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := mustPut(t, donor, makeTrace("crashy", 7, 40))
	traceFile := filepath.Base(donor.tracePath(id))
	sketchFile := id.String() + ".sketch.json"
	metaFile := id.String() + ".meta.json"
	read := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	traceRaw, sketchRaw, metaRaw := read(traceFile), read(sketchFile), read(metaFile)

	for _, tc := range []struct {
		point string
		files map[string][]byte
	}{
		{"trace under its temp name", map[string][]byte{
			traceFile + ".tmp-12345": traceRaw[:len(traceRaw)/2]}},
		{"after the trace", map[string][]byte{traceFile: traceRaw}},
		{"after the sketch", map[string][]byte{traceFile: traceRaw, sketchFile: sketchRaw}},
		{"before the meta sidecar", map[string][]byte{traceFile: traceRaw, sketchFile: sketchRaw,
			metaFile + ".tmp-67890": metaRaw}},
	} {
		t.Run(tc.point, func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			old := mustPut(t, s, makeTrace("old", 8, 30))
			for name, raw := range tc.files {
				if strings.Contains(name, ".tmp") && !atomicfile.IsTemp(name) {
					t.Fatalf("%s is not a name atomicfile.Write gives its temps", name)
				}
				if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			foreign := filepath.Join(dir, "notes.000001.seg")
			if err := os.WriteFile(foreign, []byte("not the store's"), 0o644); err != nil {
				t.Fatal(err)
			}

			s, err = New(dir, Options{VerifyOnLoad: true})
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

// TestOpenRejectsImplausibleSidecar: a sidecar whose counts no Put
// writes is refused at open with ErrInvalidSidecar.
func TestOpenRejectsImplausibleSidecar(t *testing.T) {
	id := makeTrace("x", 1, 5).ComputeDigest().String()
	for name, body := range map[string]string{
		"zero segments":          `{"id":"` + id + `","entries":5,"segments":0}`,
		"zero entries":           `{"id":"` + id + `","entries":0,"segments":1}`,
		"more segments than ent": `{"id":"` + id + `","entries":2,"segments":3}`,
		"two segments":           `{"id":"` + id + `","entries":5,"segments":2}`,
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

// TestOpenRefusesMultiSegmentTraceBeforeSweep: a trace an earlier
// release split into segments is refused at open with an error naming
// the command that merges it, and none of its segments is swept first.
func TestOpenRefusesMultiSegmentTraceBeforeSweep(t *testing.T) {
	dir := t.TempDir()
	tr := makeTrace("legacy", 2, 40)
	id := tr.ComputeDigest().String()
	w, err := trace.NewSegmentWriter(dir, id, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Entries {
		e := &tr.Entries[i]
		if _, err := w.Append(e.TID, e.Method, e.Self, e.Event); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	meta := `{"id":"` + id + `","name":"legacy","entries":40,"segments":3}`
	if err := os.WriteFile(filepath.Join(dir, id+".meta.json"), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = New(dir, Options{})
	if !errors.Is(err, ErrInvalidSidecar) || !strings.Contains(err.Error(), "rprism convert -dir") {
		t.Fatalf("New = %v, want ErrInvalidSidecar naming rprism convert -dir", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(trace.SegmentPath(dir, id, i)); err != nil {
			t.Errorf("segment %d gone after a refused open: %v", i, err)
		}
	}
}

// TestOpenEarlierReleaseLayout: a corpus written by the segmenting
// store of earlier releases with its default limit holds, per trace,
// one segment file named and labelled by the digest, a sidecar counting
// one segment and a sketch. It opens unchanged and serves the trace
// under its digest, with its sketch read from the sidecar.
func TestOpenEarlierReleaseLayout(t *testing.T) {
	dir := t.TempDir()
	tr := makeTrace("earlier", 4, 60)
	d := tr.ComputeDigest()
	id := d.String()
	w, err := trace.NewSegmentWriter(dir, id, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Entries {
		e := &tr.Entries[i]
		if _, err := w.Append(e.TID, e.Method, e.Self, e.Event); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sk, err := index.SketchTrace(tr).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	meta := `{"id":"` + id + `","name":"earlier","entries":60,"segments":1}`
	for name, raw := range map[string][]byte{id + ".meta.json": []byte(meta), id + ".sketch.json": sk} {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, id+".*"))
	if len(files) != 3 {
		t.Fatalf("laid out %v, want three files", files)
	}

	s, err := New(dir, Options{VerifyOnLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "earlier" || got.Len() != 60 || got.ComputeDigest() != d {
		t.Fatalf("served %q with %d entries, digest %s", got.Name, got.Len(), got.ComputeDigest())
	}
	if _, err := s.Sketch(d); err != nil {
		t.Fatal(err)
	}
	if st := s.IndexStats(); st.Loads != 1 || st.Backfills != 0 {
		t.Errorf("sketch loads %d, backfills %d; want the sidecar read once", st.Loads, st.Backfills)
	}
	if after, _ := filepath.Glob(filepath.Join(dir, id+".*")); len(after) != 3 {
		t.Errorf("open changed the layout: %v", after)
	}
}

// TestDeleteRacingPutKeepsIndexAndFilesInStep: a Delete racing a Put
// of the same content, and a sketch backfill of it, must leave the
// digest either indexed with files that load or absent with no file at
// all. Run under -race -cpu=1,2,4 in CI.
func TestDeleteRacingPutKeepsIndexAndFilesInStep(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 300; round++ {
		id := mustPut(t, s, makeTrace("race", 5, 40))
		// Force the next Sketch to backfill (and write its sidecar).
		s.mu.Lock()
		delete(s.sketches, id)
		s.mu.Unlock()
		os.Remove(s.sketchPath(id))

		var wg sync.WaitGroup
		wg.Add(3)
		go func() { defer wg.Done(); s.Delete(id) }()
		go func() {
			defer wg.Done()
			if _, _, err := s.Put(makeTrace("race", 5, 40)); err != nil {
				t.Error(err)
			}
		}()
		go func() { defer wg.Done(); s.Sketch(id) }()
		wg.Wait()

		if _, err := s.Meta(id); err == nil {
			dropDecoded(s)
			if _, err := s.Get(id); err != nil {
				t.Fatalf("round %d: indexed digest does not load: %v", round, err)
			}
			continue
		}
		if left, _ := filepath.Glob(filepath.Join(dir, id.String()+".*")); len(left) != 0 {
			t.Fatalf("round %d: deleted digest left files %v", round, left)
		}
	}
}

func TestViewsUnknownID(t *testing.T) {
	s, err := New(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ViewsCtx(context.Background(), trace.Digest{9}); !errors.Is(err, ErrNotFound) {
		t.Errorf("Views of unknown id: %v", err)
	}
}

func TestDelete(t *testing.T) {
	s, err := New(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := mustPut(t, s, makeTrace("gone", 4, 25))
	if _, err := s.ViewsCtx(context.Background(), id); err != nil {
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
					if _, err := s.ViewsCtx(context.Background(), id); err != nil {
						t.Error(err)
					}
				case 2:
					wl, err1 := s.ViewsCtx(context.Background(), ids[round%len(ids)])
					wr, err2 := s.ViewsCtx(context.Background(), ids[(round+1)%len(ids)])
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
	// forgiving: a stored trace whose file was truncated on disk is
	// corruption, and Get must fail rather than serve anything.
	dir := t.TempDir()
	store, err := New(dir, Options{})
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
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one trace file, got %v (err %v)", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Fresh store over the same dir: the decoded-trace LRU is cold, so
	// Get must hit the (corrupted) disk tier.
	reopened, err := New(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.Get(id); err == nil {
		t.Fatal("Get served a trace whose file is truncated")
	}

	// A whole file that holds no entries is refused too, not indexed.
	if err := trace.New("empty").Save(segs[0]); err != nil {
		t.Fatal(err)
	}
	reopened, err = New(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.Get(id); err == nil {
		t.Fatal("Get served an empty trace file for a 35-entry sidecar")
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
// Every Put stores a variant not stored before, in every round the
// benchmark runs, so no round measures the dedup path.
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
		next := n
		b.Run(fmt.Sprintf("put/traces=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr := subjects.GenCorpusTrace(99, next, 300)
				next++
				b.StartTimer()
				if _, created, err := s.Put(tr); err != nil || !created {
					b.Fatalf("put of a new variant: created=%v err=%v", created, err)
				}
			}
		})
	}
}
