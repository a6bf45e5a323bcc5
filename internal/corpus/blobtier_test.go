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
	if s2.LocalLen() != 0 {
		t.Fatalf("fresh store has %d local traces", s2.LocalLen())
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
	// Hydration fetched the segments by name from the meta's count.
	if lists := s2.Stats().Blob.Lists; lists != 0 {
		t.Fatalf("hydration listed the bucket %d times, want 0", lists)
	}
	// Views on a bucket-only trace hydrates too.
	s3, err := New(t.TempDir(), Options{Blob: mem})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Views(id); err != nil {
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
	if got := s.LocalLen(); got != 2 {
		t.Fatalf("local traces = %d, want 2 (disk cap)", got)
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
	if got := s.LocalLen(); got > 2 {
		t.Fatalf("local traces = %d after reads, want <= 2", got)
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

func TestBlobListAll(t *testing.T) {
	s, _ := newBlobStore(t, Options{DiskCacheTraces: 1})
	n := 4
	want := make(map[string]bool)
	for i := 0; i < n; i++ {
		want[mustPut(t, s, makeTrace("la", 30+i, 25)).String()] = true
	}
	all, err := s.ListAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != n {
		t.Fatalf("ListAll = %d traces, want %d", len(all), n)
	}
	for _, m := range all {
		if !want[m.ID] {
			t.Fatalf("unexpected trace %s", m.ID)
		}
		if m.Entries != 25 {
			t.Fatalf("trace %s entries = %d", m.ID, m.Entries)
		}
	}
	// Local List sees only the disk tier.
	if got := len(s.List()); got != 1 {
		t.Fatalf("List = %d, want 1 local", got)
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
// writing the segments (and sketch) but before its meta sidecar leaves
// orphans the next open sweeps; the trace is then still served from
// the bucket.
func TestHydrateCrashLeavesOldState(t *testing.T) {
	mem := blob.NewMem()
	s1, err := New(t.TempDir(), Options{Blob: mem, SegmentLimit: 16})
	if err != nil {
		t.Fatal(err)
	}
	id := mustPut(t, s1, makeTrace("far", 5, 40))
	m, _ := s1.Meta(id)

	dir := t.TempDir()
	for i := 0; i < m.Segments; i++ {
		copyFile(t, trace.SegmentPath(s1.Dir(), id.String(), i), trace.SegmentPath(dir, id.String(), i))
	}
	copyFile(t, s1.sketchPath(id), filepath.Join(dir, id.String()+".sketch.json"))

	s2, err := New(dir, Options{Blob: mem, VerifyOnLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	if s2.LocalLen() != 0 {
		t.Fatalf("half-hydrated trace was indexed locally")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, id.String()+".*")); len(left) != 0 {
		t.Fatalf("orphans survived reopen: %v", left)
	}
	if _, err := s2.Get(id); err != nil {
		t.Fatalf("Get after crashed hydration: %v", err)
	}
}

// TestHydrateMissingSegmentFails: a bucket whose meta counts a segment
// it does not hold fails the hydration and leaves no local files.
func TestHydrateMissingSegmentFails(t *testing.T) {
	mem := blob.NewMem()
	s1, err := New(t.TempDir(), Options{Blob: mem, SegmentLimit: 16})
	if err != nil {
		t.Fatal(err)
	}
	id := mustPut(t, s1, makeTrace("holed", 6, 40))
	ctx := context.Background()
	if err := mem.Delete(ctx, filepath.Base(trace.SegmentPath("", id.String(), 1))); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s2, err := New(dir, Options{Blob: mem})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get(id); err == nil {
		t.Fatal("Get hydrated a trace with a segment missing from the bucket")
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(left) != 1 || filepath.Base(left[0]) != "corpus.lock" {
		t.Fatalf("failed hydration left files: %v", left)
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
// another store's Put or hydration has written segments but not yet its
// meta sidecar (paused here at the bucket's sketch object) must leave
// those files alone, so the write still commits a trace that loads.
func TestOpenDuringWriteSkipsSweep(t *testing.T) {
	makeRacy := func() *trace.Trace { return makeTrace("racy", 3, 40) } // 3 segments
	filled := blob.NewMem()
	donor, err := New(t.TempDir(), Options{Blob: filled, SegmentLimit: 16})
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
			w, err := New(dir, Options{Blob: gate, SegmentLimit: 16})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- tc.write(w) }()
			<-gate.entered
			if _, err := os.Stat(trace.SegmentPath(dir, id.String(), 2)); err != nil {
				t.Fatalf("paused write has not written its segments: %v", err)
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
