package corpus

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/blob"
	"repro/internal/trace"
)

// newBlobStore opens a store over a fresh dir with an in-memory blob
// tier, returning both so tests can fault-inject and inspect.
func newBlobStore(t *testing.T, opts Options) (*Store, *blob.Mem) {
	t.Helper()
	mem := blob.NewMem()
	opts.Blob = mem
	s, err := New(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, mem
}

func TestBlobWriteThrough(t *testing.T) {
	s, mem := newBlobStore(t, Options{BlobPrefix: "corpus"})
	id := mustPut(t, s, makeTrace("wt", 1, 50))

	ctx := context.Background()
	keys, err := mem.List(ctx, "corpus/"+id.String()+".")
	if err != nil {
		t.Fatal(err)
	}
	var segs, metas, sketches int
	for _, k := range keys {
		switch {
		case strings.HasSuffix(k, ".seg"):
			segs++
		case strings.HasSuffix(k, ".meta.json"):
			metas++
		case strings.HasSuffix(k, ".sketch.json"):
			sketches++
		}
	}
	if segs == 0 || metas != 1 || sketches != 1 {
		t.Fatalf("bucket after Put: segs=%d metas=%d sketches=%d (keys %v)", segs, metas, sketches, keys)
	}
	st := s.Stats()
	if st.Blob == nil || st.Blob.Puts == 0 || st.Blob.BytesUp == 0 {
		t.Fatalf("blob counters not populated: %+v", st.Blob)
	}
}

func TestBlobWriteThroughFailureFailsPut(t *testing.T) {
	s, mem := newBlobStore(t, Options{})
	mem.SetFault(func(op blob.Op, key string) error {
		if op == blob.OpPut {
			// Permanent so the retry wrapper does not heal it.
			return blob.ErrNotFound
		}
		return nil
	})
	tr := makeTrace("fail", 2, 20)
	id, _, err := s.Put(tr)
	if err == nil {
		t.Fatal("Put succeeded despite blob write failure")
	}
	mem.SetFault(nil)
	// The failed Put must leave no half-admitted trace behind.
	if _, err := s.Meta(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Meta after failed Put = %v, want ErrNotFound", err)
	}
	// And a retry after the fault clears succeeds cleanly.
	id2 := mustPut(t, s, makeTrace("fail", 2, 20))
	if id2 != id {
		t.Fatalf("digest changed across retries: %s vs %s", id, id2)
	}
}

// TestBlobHydration: a second store sharing the bucket (a fresh
// cluster node, or one after disk loss) serves a trace it never
// ingested — read-through hydration — and the hydrated copy is
// byte-identical (digest verification on).
func TestBlobHydration(t *testing.T) {
	mem := blob.NewMem()
	s1, err := New(t.TempDir(), Options{Blob: mem})
	if err != nil {
		t.Fatal(err)
	}
	src := makeTrace("hydrate", 3, 120)
	id := mustPut(t, s1, src)

	s2, err := New(t.TempDir(), Options{Blob: mem, VerifyOnLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	if local := s2.Stats().Traces; local != 0 {
		t.Fatalf("fresh store has %d local traces", local)
	}
	got, err := s2.Get(id)
	if err != nil {
		t.Fatalf("Get via hydration: %v", err)
	}
	if got.Len() != src.Len() || got.Name != "hydrate" {
		t.Fatalf("hydrated trace: len=%d name=%q", got.Len(), got.Name)
	}
	if s2.Stats().Blob.Hydrations != 1 {
		t.Fatalf("hydrations = %d, want 1", s2.Stats().Blob.Hydrations)
	}
	// Now local: a second Get must not touch the bucket again.
	gets := s2.Stats().Blob.Gets
	if _, err := s2.Get(id); err != nil {
		t.Fatal(err)
	}
	if after := s2.Stats().Blob.Gets; after != gets {
		t.Fatalf("second Get hit the bucket (%d -> %d gets)", gets, after)
	}
	// Hydration fetched the trace file by name, with no LIST.
	if lists := s2.Stats().Blob.Lists; lists != 0 {
		t.Fatalf("hydration listed the bucket %d times, want 0", lists)
	}
	// Views on a bucket-only trace hydrates too.
	s3, err := New(t.TempDir(), Options{Blob: mem})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.ViewsCtx(context.Background(), id); err != nil {
		t.Fatalf("Views via hydration: %v", err)
	}
}

// TestBlobDiskEviction: with DiskCacheTraces bounding the disk tier,
// a store holds a corpus larger than its local cap — evicted traces
// stay resolvable through the bucket and hydrate back on demand.
func TestBlobDiskEviction(t *testing.T) {
	s, _ := newBlobStore(t, Options{DiskCacheTraces: 2, TraceCacheSize: 1, WebCacheSize: 1})
	var ids []trace.Digest
	for i := 0; i < 5; i++ {
		ids = append(ids, mustPut(t, s, makeTrace("big", 10+i, 40)))
	}
	if got := s.Stats().Traces; got != 2 {
		t.Fatalf("local traces = %d, want 2 (disk cap)", got)
	}
	if got := s.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5 (every tier)", got)
	}
	st := s.Stats()
	if st.Blob.DiskEvictions != 3 {
		t.Fatalf("disk evictions = %d, want 3", st.Blob.DiskEvictions)
	}
	if st.RemoteTraces != 3 {
		t.Fatalf("remote traces = %d, want 3", st.RemoteTraces)
	}
	// Every trace — evicted or not — still resolves and loads.
	for i, id := range ids {
		m, err := s.Meta(id)
		if err != nil {
			t.Fatalf("Meta(%d): %v", i, err)
		}
		if m.Entries != 40 {
			t.Fatalf("Meta(%d).Entries = %d", i, m.Entries)
		}
		tr, err := s.Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if tr.Len() != 40 {
			t.Fatalf("Get(%d).Len = %d", i, tr.Len())
		}
	}
	if s.Stats().Blob.Hydrations == 0 {
		t.Fatal("reading evicted traces performed no hydrations")
	}
	// The disk tier still respects its cap after the read sweep.
	if got := s.Stats().Traces; got > 2 {
		t.Fatalf("local traces = %d after reads, want <= 2", got)
	}
	// A Put of a trace that is no longer local files it once.
	mustPut(t, s, makeTrace("big", 10, 40))
	if got := s.Len(); got != 5 {
		t.Fatalf("Len = %d after reads and a re-Put, want 5", got)
	}
}

// TestBlobOpenEvictsNothing: a store reopened under a disk bound
// smaller than what it finds on disk keeps every local trace resident
// until its next Put, which trims the disk tier to the bound.
func TestBlobOpenEvictsNothing(t *testing.T) {
	mem := blob.NewMem()
	dir := t.TempDir()
	s, err := New(dir, Options{Blob: mem})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		mustPut(t, s, makeTrace("open", 20+i, 30))
	}
	s, err = New(dir, Options{Blob: mem, DiskCacheTraces: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Traces != 3 || st.Blob.DiskEvictions != 0 {
		t.Fatalf("after reopen: %d resident, %d disk evictions; want 3 and 0", st.Traces, st.Blob.DiskEvictions)
	}
	if metas, _ := filepath.Glob(filepath.Join(dir, "*.meta.json")); len(metas) != 3 {
		t.Fatalf("%d meta sidecars on disk after reopen, want 3", len(metas))
	}
	mustPut(t, s, makeTrace("open", 30, 30))
	if st := s.Stats(); st.Traces != 1 || st.Blob.DiskEvictions != 3 || s.Len() != 4 {
		t.Fatalf("after a Put: %d resident, %d disk evictions, Len %d; want 1, 3, 4",
			st.Traces, st.Blob.DiskEvictions, s.Len())
	}
}

func TestBlobResolvePrefix(t *testing.T) {
	s, mem := newBlobStore(t, Options{DiskCacheTraces: 1})
	var ids []trace.Digest
	for i := 0; i < 4; i++ {
		ids = append(ids, mustPut(t, s, makeTrace("rp", 20+i, 30)))
	}
	// All but one trace now live only in the bucket; each still
	// resolves by short prefix.
	for _, id := range ids {
		got, err := s.ResolvePrefix(id.String()[:8])
		if err != nil {
			t.Fatalf("ResolvePrefix(%s): %v", id.String()[:8], err)
		}
		if got != id {
			t.Fatalf("ResolvePrefix = %s, want %s", got, id)
		}
	}
	// A prefix matching nothing still reports not-found.
	if _, err := s.ResolvePrefix("0000dead"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss = %v, want ErrNotFound", err)
	}
	// A fresh node sharing the bucket resolves prefixes it never saw.
	s2, err := New(t.TempDir(), Options{Blob: mem})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.ResolvePrefix(ids[0].String()[:8]); err != nil || got != ids[0] {
		t.Fatalf("fresh-node ResolvePrefix = %s, %v", got, err)
	}
}

// TestBlobListAll: List covers every tier — the one trace left on
// disk, the ones evicted past the bound, and, on a fresh store over the
// same bucket, the ones it never saw — and a bucket that fails the LIST
// leaves the known members listed.
func TestBlobListAll(t *testing.T) {
	s, mem := newBlobStore(t, Options{DiskCacheTraces: 1})
	n := 4
	want := make(map[string]bool)
	for i := 0; i < n; i++ {
		want[mustPut(t, s, makeTrace("la", 30+i, 25)).String()] = true
	}
	s2, err := New(t.TempDir(), Options{Blob: mem})
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"writer": s, "fresh": s2} {
		all := st.List()
		if len(all) != n {
			t.Fatalf("%s: List = %d traces, want %d", name, len(all), n)
		}
		for _, m := range all {
			if !want[m.ID] {
				t.Fatalf("%s: unexpected trace %s", name, m.ID)
			}
			if m.Entries != 25 {
				t.Fatalf("%s: trace %s entries = %d", name, m.ID, m.Entries)
			}
		}
		if got := st.Stats().Traces; name == "writer" && got != 1 {
			t.Fatalf("writer: %d traces on local disk, want 1", got)
		}
	}
	mem.SetFault(func(op blob.Op, key string) error {
		if op == blob.OpList {
			return blob.ErrNotFound
		}
		return nil
	})
	errs := s2.Stats().Blob.Errors
	if got := len(s2.List()); got != n {
		t.Fatalf("List with a failing bucket = %d, want the %d known", got, n)
	}
	if got := s2.Stats().Blob.Errors; got != errs+1 {
		t.Fatalf("blob errors = %d after a failed LIST, want %d", got, errs+1)
	}
}

func TestBlobDeleteAllTiers(t *testing.T) {
	s, mem := newBlobStore(t, Options{})
	id := mustPut(t, s, makeTrace("del", 40, 30))
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if mem.Len() != 0 {
		t.Fatalf("bucket still holds %d objects after Delete", mem.Len())
	}
	if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
	}

	// Deleting a bucket-only trace (ingested elsewhere) works too.
	s2, err := New(t.TempDir(), Options{Blob: mem})
	if err != nil {
		t.Fatal(err)
	}
	id2 := mustPut(t, s, makeTrace("del2", 41, 30))
	if err := s2.Delete(id2); err != nil {
		t.Fatalf("remote-only delete: %v", err)
	}
	if mem.Len() != 0 {
		t.Fatalf("bucket still holds %d objects", mem.Len())
	}
}

// TestBlobTransientFaultsRetry: a 5xx-style burst during hydration
// heals through the shared retry policy; the retry counter records it.
func TestBlobTransientFaultsRetry(t *testing.T) {
	mem := blob.NewMem()
	s1, err := New(t.TempDir(), Options{Blob: mem})
	if err != nil {
		t.Fatal(err)
	}
	id := mustPut(t, s1, makeTrace("burst", 50, 60))

	s2, err := New(t.TempDir(), Options{Blob: mem})
	if err != nil {
		t.Fatal(err)
	}
	mem.FailNext(2)
	if _, err := s2.Get(id); err != nil {
		t.Fatalf("Get under transient burst: %v", err)
	}
	if got := s2.Stats().Blob.Retries; got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
}

// TestBlobEvictedTraceSurvivesStaleMemory: after a disk eviction the
// decoded-trace LRU may still hold the evicted trace; the files are
// gone but Get must keep working (memory hit first, hydration after).
func TestBlobEvictedTraceSurvivesStaleMemory(t *testing.T) {
	s, _ := newBlobStore(t, Options{DiskCacheTraces: 1, TraceCacheSize: 8})
	a := mustPut(t, s, makeTrace("sm", 60, 30))
	mustPut(t, s, makeTrace("sm", 61, 30)) // evicts a's disk files
	// a is still in the decoded LRU from Put: memory hit.
	if _, err := s.Get(a); err != nil {
		t.Fatalf("memory-tier Get after disk eviction: %v", err)
	}
}

// TestHydrateCrashLeavesOldState: a hydration that crashed after
// writing the trace file (and sketch) but before its meta sidecar
// leaves orphans the next open sweeps; the trace is then still served
// from the bucket.
func TestHydrateCrashLeavesOldState(t *testing.T) {
	mem := blob.NewMem()
	s1, err := New(t.TempDir(), Options{Blob: mem})
	if err != nil {
		t.Fatal(err)
	}
	id := mustPut(t, s1, makeTrace("far", 5, 40))

	dir := t.TempDir()
	copyFile(t, s1.tracePath(id), filepath.Join(dir, filepath.Base(s1.tracePath(id))))
	copyFile(t, s1.sketchPath(id), filepath.Join(dir, id.String()+".sketch.json"))

	s2, err := New(dir, Options{Blob: mem, VerifyOnLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Stats().Traces != 0 {
		t.Fatalf("half-hydrated trace was indexed locally")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, id.String()+".*")); len(left) != 0 {
		t.Fatalf("orphans survived reopen: %v", left)
	}
	if _, err := s2.Get(id); err != nil {
		t.Fatalf("Get after crashed hydration: %v", err)
	}
}

// TestHydrateMissingSegmentFails: a bucket that holds a trace's meta
// but not its trace object fails the hydration and leaves no local
// files.
func TestHydrateMissingSegmentFails(t *testing.T) {
	mem := blob.NewMem()
	s1, err := New(t.TempDir(), Options{Blob: mem})
	if err != nil {
		t.Fatal(err)
	}
	id := mustPut(t, s1, makeTrace("holed", 6, 40))
	ctx := context.Background()
	if err := mem.Delete(ctx, filepath.Base(s1.tracePath(id))); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s2, err := New(dir, Options{Blob: mem})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get(id); err == nil {
		t.Fatal("Get hydrated a trace whose trace object is missing from the bucket")
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(left) != 1 || filepath.Base(left[0]) != "corpus.lock" {
		t.Fatalf("failed hydration left files: %v", left)
	}
}

// TestHydrateForcedReplacesSegmentFile: Get's recovery re-hydrates a
// corrupted trace file by renaming a fresh file into place, never by
// rewriting the file other Gets may be reading; a trace file left under
// its temporary name by a crash is swept on the next open, as is the
// temp name of earlier releases.
func TestHydrateForcedReplacesSegmentFile(t *testing.T) {
	mem := blob.NewMem()
	s1, err := New(t.TempDir(), Options{Blob: mem})
	if err != nil {
		t.Fatal(err)
	}
	id := mustPut(t, s1, makeTrace("torn", 7, 40))
	seg := s1.tracePath(id)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[17] ^= 0x01 // inside the first thread block: its CRC fails
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}

	// A second store over the same directory starts with a cold trace
	// LRU, so its Get reads the corrupted file and recovers.
	s2, err := New(s1.Dir(), Options{Blob: mem, VerifyOnLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get(id); err != nil {
		t.Fatalf("Get over a corrupted segment: %v", err)
	}
	if h := s2.Stats().Blob.Hydrations; h != 1 {
		t.Fatalf("hydrations = %d, want 1 (the recovery)", h)
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(before, after) {
		t.Fatal("re-hydration rewrote the live segment file in place")
	}

	tmps := []string{seg + ".tmp-4242", seg + ".tmp"}
	for _, tmp := range tmps {
		if err := os.WriteFile(tmp, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := New(s1.Dir(), Options{Blob: mem}); err != nil {
		t.Fatal(err)
	}
	for _, tmp := range tmps {
		if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("leftover %s survived reopen (stat: %v)", filepath.Base(tmp), err)
		}
	}
}

// gatedBackend pauses the first Put or Get of a key ending in suffix,
// closing entered, until release is closed.
type gatedBackend struct {
	blob.Backend
	suffix           string
	once             sync.Once
	entered, release chan struct{}
}

func (g *gatedBackend) pause(key string) {
	if strings.HasSuffix(key, g.suffix) {
		g.once.Do(func() { close(g.entered); <-g.release })
	}
}

func (g *gatedBackend) Put(ctx context.Context, key string, data []byte) error {
	g.pause(key)
	return g.Backend.Put(ctx, key, data)
}

func (g *gatedBackend) Get(ctx context.Context, key string) (io.ReadCloser, error) {
	g.pause(key)
	return g.Backend.Get(ctx, key)
}

// TestOpenDuringWriteSkipsSweep: a store opened on the directory while
// another store's Put or hydration has written its trace file but not
// yet its meta sidecar (paused here at the bucket's sketch object) must leave
// those files alone, so the write still commits a trace that loads.
func TestOpenDuringWriteSkipsSweep(t *testing.T) {
	makeRacy := func() *trace.Trace { return makeTrace("racy", 3, 40) }
	filled := blob.NewMem()
	donor, err := New(t.TempDir(), Options{Blob: filled})
	if err != nil {
		t.Fatal(err)
	}
	id := mustPut(t, donor, makeRacy())

	for _, tc := range []struct {
		name   string
		bucket blob.Backend
		write  func(*Store) error
	}{
		{"put", blob.NewMem(), func(s *Store) error { _, _, err := s.Put(makeRacy()); return err }},
		{"hydrate", filled, func(s *Store) error { _, err := s.Get(id); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			gate := &gatedBackend{Backend: tc.bucket, suffix: ".sketch.json",
				entered: make(chan struct{}), release: make(chan struct{})}
			w, err := New(dir, Options{Blob: gate})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- tc.write(w) }()
			<-gate.entered
			if _, err := os.Stat(w.tracePath(id)); err != nil {
				t.Fatalf("paused write has not written its trace file: %v", err)
			}
			if _, err := os.Stat(w.metaPath(id)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("paused write already has a sidecar: %v", err)
			}
			if _, err := New(dir, Options{}); err != nil {
				t.Fatal(err)
			}
			close(gate.release)
			if err := <-done; err != nil {
				t.Fatalf("write beside a reopen: %v", err)
			}
			if h := w.Stats().Blob.Hydrations; tc.name == "hydrate" && h != 1 {
				t.Fatalf("hydrations = %d, want 1 (a healed load hides swept files)", h)
			}
			// No bucket here: this load can only come from disk.
			r, err := New(dir, Options{VerifyOnLoad: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Get(id); err != nil {
				t.Fatalf("trace written beside a reopen: %v", err)
			}
		})
	}
}

// BenchmarkBlobGet measures a Get through the blob tier: "hydrated" on a
// fresh store whose disk tier already holds the trace (decode only),
// "cold" on a fresh store over an empty directory (download and decode
// the trace file). The ratio of the two is what a disk-tier miss
// pays for hydration.
func BenchmarkBlobGet(b *testing.B) {
	bucket := blob.NewMem()
	dir := b.TempDir()
	seed, err := New(dir, Options{Blob: bucket})
	if err != nil {
		b.Fatal(err)
	}
	id, _, err := seed.Put(benchCorpusTrace(8, 2500))
	if err != nil {
		b.Fatal(err)
	}
	get := func(b *testing.B, dir string) {
		s, err := New(dir, Options{Blob: bucket})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Get(id); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("hydrated", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			get(b, dir)
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cold, err := os.MkdirTemp("", "blobget-cold")
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			get(b, cold)
			b.StopTimer()
			os.RemoveAll(cold)
			b.StartTimer()
		}
	})
}
