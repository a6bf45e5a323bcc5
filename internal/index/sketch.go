// Package index is the corpus-scale similarity layer: a fixed-width
// per-trace sketch computed once at ingest, and Clusters, which bands
// a set of sketches on demand to partition them. Sketch bounds turn
// "which of my stored traces diverge most/least from this one" from N
// full semantic diffs into a cheap ranking plus a handful of exact
// refinements — the same coarsen-then-refine structure the paper's
// views bring to a single diff, applied across the corpus.
//
// A sketch carries two independent summaries:
//
//   - Counts: a bucket-count vector over =e equivalence classes (the
//     event-equality predicate of Fig. 9). Every similarity the views
//     differencer ever marks is gated on EventEqual, so an entry whose
//     =e class has zero occurrences on the other side is provably a
//     difference. Summing those one-sided counts yields DiffLowerBound,
//     a sound lower bound on Result.NumDiffs — the pruning bound of the
//     top-K search.
//   - MinHash: 64 min-wise hash slots over the trace's distinct feature
//     set (event classes, method names, target classes). Slot agreement
//     estimates Jaccard similarity; banded into BandKeys it proposes
//     the candidate pairs of Clusters.
//
// Sketches are derived exclusively from the canonical Sym-free fields
// (the same strings trace.WriteCanonical hashes), never from interned
// trace.Sym ids, so a sketch is stable across symbol-table remappings,
// JSONL/RSEG round-trips, and segmentation changes.
package index

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/trace"
)

const (
	// SketchVersion is bumped whenever the feature extraction or the
	// layout changes; persisted sketches with another version are
	// recomputed, never reinterpreted.
	SketchVersion = 1
	// MinHashK is the number of min-wise hash slots.
	MinHashK = 64
	// CountBuckets is the width of the =e-class count vector. Collisions
	// between classes only merge buckets, which weakens (never breaks)
	// the lower bound.
	CountBuckets = 1024
	// Bands × BandRows = MinHashK. 16 bands of 4 rows put the LSH
	// S-curve threshold near (1/16)^(1/4) ≈ 0.5 estimated Jaccard.
	Bands    = 16
	BandRows = MinHashK / Bands
)

// Sketch is the fixed-width similarity summary of one trace.
type Sketch struct {
	// Total counts every entry folded in; Entries excludes EOF padding
	// (EOF entries are never differences, so they are invisible to the
	// bound and the features).
	Total   uint32
	Entries uint32
	Threads uint32
	MinHash [MinHashK]uint64
	Counts  [CountBuckets]uint32
}

// sketcher folds trace entries into a sketch, one add per entry; the
// result is a function of the entry multiset only.
type sketcher struct {
	sk       Sketch
	seenFeat map[uint64]struct{}
	seenTID  map[trace.ThreadID]struct{}
}

// SketchTrace computes the sketch of a whole trace in one pass.
func SketchTrace(t *trace.Trace) *Sketch {
	s := &sketcher{
		seenFeat: make(map[uint64]struct{}),
		seenTID:  make(map[trace.ThreadID]struct{}),
	}
	for i := range s.sk.MinHash {
		s.sk.MinHash[i] = ^uint64(0)
	}
	for i := range t.Entries {
		s.add(&t.Entries[i])
	}
	sk := s.sk // a copy: a pointer into s would keep its maps alive
	return &sk
}

func (s *sketcher) add(e *trace.Entry) {
	s.sk.Total++
	if e.Event.Kind == trace.KindEOF {
		return
	}
	s.sk.Entries++
	if _, ok := s.seenTID[e.TID]; !ok {
		s.seenTID[e.TID] = struct{}{}
		s.sk.Threads++
	}
	ch := trace.EventClassHash(e)
	s.sk.Counts[ch&(CountBuckets-1)]++
	s.feature(ch)
	s.feature(strFeature('m', e.Method))
	if c := e.Event.Target.Class; c != "" {
		s.feature(strFeature('c', c))
	}
}

// feature folds a distinct feature into the MinHash slots. Repeats are
// skipped (min-wise hashing is over the feature *set*), which also
// keeps the per-entry cost near zero once the vocabulary is seen. The
// per-slot hashes are the 2-universal family h1 + i·h2 (the standard
// MinHash construction): one add per slot instead of a full mix, and a
// pure function of the feature alone, so sketches stay comparable
// across machines.
func (s *sketcher) feature(f uint64) {
	if _, ok := s.seenFeat[f]; ok {
		return
	}
	s.seenFeat[f] = struct{}{}
	h1 := trace.Mix64(0, f)
	h2 := trace.Mix64(0, f^0x9e3779b97f4a7c15) | 1
	v := h1
	for i := range s.sk.MinHash {
		if v < s.sk.MinHash[i] {
			s.sk.MinHash[i] = v
		}
		v += h2
	}
}

// DiffLowerBound is a sound lower bound on diff.Result.NumDiffs for the
// two sketched traces: every u.mark in the views differencer is gated
// on trace.EventEqual, so an entry whose =e class-hash bucket is empty
// on the other side can never be marked similar and must land in a
// difference set. Bucket collisions only merge classes, weakening the
// bound — never overstating it.
func DiffLowerBound(a, b *Sketch) int {
	lb := 0
	for i := range a.Counts {
		ca, cb := a.Counts[i], b.Counts[i]
		if cb == 0 {
			lb += int(ca)
		} else if ca == 0 {
			lb += int(cb)
		}
	}
	return lb
}

// DiffUpperBound bounds NumDiffs from above: at worst every non-EOF
// entry of both traces is a difference. Exact-length trivia aside, this
// is what makes "most divergent" pruning possible without touching the
// candidate's entries.
func DiffUpperBound(a, b *Sketch) int {
	return int(a.Entries) + int(b.Entries)
}

// EstimatedJaccard estimates the Jaccard similarity of the two traces'
// feature sets from MinHash slot agreement, in [0, 1].
func EstimatedJaccard(a, b *Sketch) float64 {
	match := 0
	for i := range a.MinHash {
		if a.MinHash[i] == b.MinHash[i] {
			match++
		}
	}
	return float64(match) / float64(MinHashK)
}

// BandKeys collapses the MinHash rows into one key per LSH band. Two
// traces agreeing on all rows of any band share that band's key.
func (sk *Sketch) BandKeys() [Bands]uint64 {
	var keys [Bands]uint64
	for b := 0; b < Bands; b++ {
		h := uint64(trace.HashOffset) ^ uint64(b)*trace.HashPrime
		for r := 0; r < BandRows; r++ {
			h = trace.Mix64(h, sk.MinHash[b*BandRows+r])
		}
		keys[b] = h
	}
	return keys
}

func strFeature(tag byte, s string) uint64 {
	return trace.MixString(trace.Mix64(trace.HashOffset, uint64(tag)), s)
}

// ---- persistence ----

// ErrSketchFormat reports a persisted sketch this version of the code
// does not understand (wrong version, truncated vectors). Loaders treat
// it as "no sketch" and recompute.
var ErrSketchFormat = errors.New("index: unreadable sketch")

// sketchWire is the sidecar JSON layout. The two vectors travel as
// base64 of their little-endian fixed-width encoding: compact, and
// byte-exact across round trips.
type sketchWire struct {
	Version int    `json:"version"`
	Total   uint32 `json:"total"`
	Entries uint32 `json:"entries"`
	Threads uint32 `json:"threads"`
	MinHash string `json:"minhash"`
	Counts  string `json:"counts"`
}

// Marshal encodes the sketch for its sidecar file.
func (sk *Sketch) Marshal() ([]byte, error) {
	mh := make([]byte, MinHashK*8)
	for i, v := range sk.MinHash {
		binary.LittleEndian.PutUint64(mh[i*8:], v)
	}
	cnt := make([]byte, CountBuckets*4)
	for i, v := range sk.Counts {
		binary.LittleEndian.PutUint32(cnt[i*4:], v)
	}
	return json.Marshal(sketchWire{
		Version: SketchVersion,
		Total:   sk.Total,
		Entries: sk.Entries,
		Threads: sk.Threads,
		MinHash: base64.StdEncoding.EncodeToString(mh),
		Counts:  base64.StdEncoding.EncodeToString(cnt),
	})
}

// UnmarshalSketch decodes a sidecar written by Marshal.
func UnmarshalSketch(raw []byte) (*Sketch, error) {
	var w sketchWire
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSketchFormat, err)
	}
	if w.Version != SketchVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrSketchFormat, w.Version, SketchVersion)
	}
	mh, err := base64.StdEncoding.DecodeString(w.MinHash)
	if err != nil || len(mh) != MinHashK*8 {
		return nil, fmt.Errorf("%w: bad minhash block", ErrSketchFormat)
	}
	cnt, err := base64.StdEncoding.DecodeString(w.Counts)
	if err != nil || len(cnt) != CountBuckets*4 {
		return nil, fmt.Errorf("%w: bad counts block", ErrSketchFormat)
	}
	sk := &Sketch{Total: w.Total, Entries: w.Entries, Threads: w.Threads}
	for i := range sk.MinHash {
		sk.MinHash[i] = binary.LittleEndian.Uint64(mh[i*8:])
	}
	for i := range sk.Counts {
		sk.Counts[i] = binary.LittleEndian.Uint32(cnt[i*4:])
	}
	return sk, nil
}
