package corpus

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"

	"repro/internal/atomicfile"
	"repro/internal/index"
	"repro/internal/trace"
)

func (s *Store) sketchPath(id trace.Digest) string {
	return filepath.Join(s.dir, id.String()+".sketch.json")
}

// Sketch returns the similarity sketch of a member, resolving it
// through three tiers: the in-memory map (populated at Put and by
// earlier lookups), the persisted sidecar — the local file if the trace
// is on local disk, the bucket's sketch object if not, so an evicted
// trace is not hydrated for its sketch — and, for corpora written
// before sketches existed or after a sidecar was lost, a backfill
// recomputed from the trace itself and re-persisted best-effort. A
// resolved sketch stays resident until Delete. The returned sketch is
// shared and read-only.
func (s *Store) Sketch(id trace.Digest) (*index.Sketch, error) {
	s.mu.Lock()
	sk, ok := s.sketches[id]
	s.mu.Unlock()
	resident := s.local.Contains(id)
	if ok {
		return sk, nil
	}
	m, err := s.Meta(id)
	if err != nil {
		return nil, err
	}

	// Sidecar tier. Unreadable or stale-version sidecars fall through to
	// the backfill; Total is cross-checked against the meta so a sidecar
	// belonging to a truncated earlier write cannot be served.
	var raw []byte
	if resident {
		raw, err = os.ReadFile(s.sketchPath(id))
	} else {
		raw, err = s.blobGet(context.Background(), s.blobKey(id.String()+".sketch.json"))
	}
	if err == nil {
		if sk, err := index.UnmarshalSketch(raw); err == nil && int(sk.Total) == m.Entries {
			s.sketchLoads.Add(1)
			s.admitSketch(id, sk)
			return sk, nil
		}
	}

	// Backfill: decode the trace and sketch it in one pass.
	t, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	sk = index.SketchTrace(t)
	s.sketchBackfills.Add(1)
	s.writeSketch(id, sk)
	s.admitSketch(id, sk)
	return sk, nil
}

// writeSketch persists a backfilled sketch, best effort, under the write
// lock and only while id is on local disk: a raced Delete or eviction
// leaves no orphan.
func (s *Store) writeSketch(id trace.Digest, sk *index.Sketch) {
	unlock, err := s.lockWrites()
	if err != nil {
		return
	}
	defer unlock()
	ok := s.local.Contains(id)
	if raw, err := sk.Marshal(); ok && err == nil {
		_ = atomicfile.Write(s.sketchPath(id), raw)
	}
}

// admitSketch publishes a resolved sketch to the in-memory map. Two
// goroutines backfilling the same id race benignly: the sketches are
// identical (pure function of the stored trace).
func (s *Store) admitSketch(id trace.Digest, sk *index.Sketch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A concurrent Delete may have removed the trace while we were
	// loading; admitting a ghost would resurrect it in search results
	// and clusters.
	if _, ok := s.metas[id]; ok {
		s.sketches[id] = sk
	}
}

// EnsureIndexed resolves the sketch of every member that List returns
// (loading sidecars from disk or bucket, backfilling where necessary),
// so the resident sketches cover the whole corpus. Corpus-scale
// analyses call it first; after the first call over a given corpus it
// costs one List. Returns the first resolution error, after attempting
// every trace.
func (s *Store) EnsureIndexed() error {
	var firstErr error
	for _, m := range s.List() {
		id, _ := trace.ParseDigest(m.ID)
		if _, err := s.Sketch(id); err != nil && firstErr == nil {
			// A trace deleted while we walked is not an indexing failure.
			if errors.Is(err, ErrNotFound) {
				continue
			}
			firstErr = err
		}
	}
	if firstErr != nil {
		return fmt.Errorf("corpus: ensure indexed: %w", firstErr)
	}
	return nil
}

// Clusters partitions the members by sketch similarity (see
// index.Clusters), after making every member's sketch resident.
func (s *Store) Clusters(threshold float64) ([][]trace.Digest, error) {
	if err := s.EnsureIndexed(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	sketches := maps.Clone(s.sketches)
	s.mu.Unlock()
	return index.Clusters(sketches, threshold), nil
}

// IndexStats reports similarity-sketch coverage and provenance.
type IndexStats struct {
	Sketches  int   `json:"sketches"`         // resident sketches
	Bands     int   `json:"bands"`            // LSH bands per sketch
	Traces    int   `json:"traces"`           // every member (coverage target)
	Loads     int64 `json:"sketch_loads"`     // sidecar loads
	Backfills int64 `json:"sketch_backfills"` // recomputed from trace entries
	Computed  int64 `json:"sketch_computed"`  // computed inline at Put
}

// IndexStats snapshots sketch coverage.
func (s *Store) IndexStats() IndexStats {
	s.mu.Lock()
	sketches, traces := len(s.sketches), len(s.metas)
	s.mu.Unlock()
	return IndexStats{
		Sketches:  sketches,
		Bands:     index.Bands,
		Traces:    traces,
		Loads:     s.sketchLoads.Load(),
		Backfills: s.sketchBackfills.Load(),
		Computed:  s.sketchComputed.Load(),
	}
}
