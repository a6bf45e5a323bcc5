package corpus_test

import (
	"context"
	"fmt"
	"testing"

	rprism "repro"
	"repro/internal/blob"
	"repro/internal/corpus"
	"repro/internal/trace"
)

// TestBlobMembershipAcrossReopen: N traces put under a disk bound
// smaller than N are all members. Before and after a reopen over the
// same directory and bucket, List, the sketches EnsureIndexed resolves,
// Clusters and the candidates Engine.Search ranks cover the same N
// digests, and EnsureIndexed reads evicted traces' sketches from the
// bucket without hydrating them.
func TestBlobMembershipAcrossReopen(t *testing.T) {
	const n, keep = 5, 2
	mem := blob.NewMem()
	dir := t.TempDir()
	opts := corpus.Options{Blob: mem, DiskCacheTraces: keep}
	s, err := corpus.New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ids []trace.Digest
	want := make(map[string]bool)
	for i := 0; i < n; i++ {
		tr := trace.New(fmt.Sprintf("member-%d", i))
		for j := 0; j < 40; j++ {
			m := fmt.Sprintf("M.m%d/0", (j*(i+2))%13)
			tr.Append(trace.ThreadID(1+j%2), m, trace.Repr{}, trace.Event{Kind: trace.KindCall, Member: m})
		}
		id, _, err := s.Put(tr)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		want[id.String()] = true
	}
	covers := func(what string, got []string) {
		t.Helper()
		seen := make(map[string]bool)
		for _, id := range got {
			if !want[id] || seen[id] {
				t.Fatalf("%s: unexpected or repeated digest %s in %v", what, id, got)
			}
			seen[id] = true
		}
		if len(seen) != n {
			t.Fatalf("%s covers %d digests, want %d", what, len(seen), n)
		}
	}

	check := func(name string, s *corpus.Store) {
		t.Helper()
		var listed []string
		for _, m := range s.List() {
			listed = append(listed, m.ID)
		}
		covers(name+": List", listed)
		if got := s.Len(); got != n {
			t.Fatalf("%s: Len = %d, want %d", name, got, n)
		}
		if got := s.Stats().Traces; got > keep {
			t.Fatalf("%s: %d traces on local disk, bound is %d", name, got, keep)
		}

		hydrations := s.Stats().Blob.Hydrations
		if err := s.EnsureIndexed(); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().Blob.Hydrations; got != hydrations {
			t.Fatalf("%s: EnsureIndexed hydrated %d traces, want 0", name, got-hydrations)
		}
		var sketched []string
		for _, id := range ids {
			if _, err := s.Sketch(id); err != nil {
				t.Fatalf("%s: Sketch(%s): %v", name, id, err)
			}
			sketched = append(sketched, id.String())
		}
		covers(name+": sketches", sketched)
		if st := s.IndexStats(); st.Sketches != n || st.Traces != n {
			t.Fatalf("%s: IndexStats sketches=%d traces=%d, want %d", name, st.Sketches, st.Traces, n)
		}
		if got := s.Stats().Blob.Hydrations; got != hydrations {
			t.Fatalf("%s: resolving sketches hydrated %d traces, want 0", name, got-hydrations)
		}

		groups, err := s.Clusters(0.5)
		if err != nil {
			t.Fatal(err)
		}
		var clustered []string
		for _, g := range groups {
			for _, id := range g {
				clustered = append(clustered, id.String())
			}
		}
		covers(name+": Clusters", clustered)

		eng := rprism.NewEngine(rprism.WithCorpus(s))
		res, err := eng.Search(context.Background(), rprism.FromCorpus(ids[0]), rprism.SearchOptions{K: n})
		if err != nil {
			t.Fatal(err)
		}
		if res.Corpus != n-1 {
			t.Fatalf("%s: search ranks %d candidates, want %d", name, res.Corpus, n-1)
		}
		ranked := []string{res.Query}
		for _, h := range res.Hits {
			ranked = append(ranked, h.ID)
		}
		covers(name+": search query and hits", ranked)
	}

	check("writer", s)
	reopened, err := corpus.New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Len(); got > keep {
		t.Fatalf("reopened: Len = %d before any List, want only the %d local", got, keep)
	}
	check("reopened", reopened)
}
