// Package diff implements the paper's two trace-differencing semantics:
// the LCS baseline of Fig. 11 (well-known diff, quadratic, with the
// common-prefix/suffix optimization of §5.1) and the views-based semantics
// of Fig. 12, which walks correlated thread views in lock step and, at
// points of divergence, explores linked secondary views with windowed LCS
// to find semantically corresponding entries — achieving linear time and
// space on full program traces.
package diff

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// SeqKind classifies a difference sequence by which sides contribute.
type SeqKind uint8

const (
	// Modify has differing entries on both sides.
	Modify SeqKind = iota
	// Delete has entries only on the left (removed in the new version).
	Delete
	// Insert has entries only on the right (added in the new version).
	Insert
)

func (k SeqKind) String() string {
	switch k {
	case Modify:
		return "modify"
	case Delete:
		return "delete"
	case Insert:
		return "insert"
	}
	return "?"
}

// Sequence is one difference sequence: a contiguous run of differences
// representing a single higher-level semantic difference (§5.1 —
// "RPRISM organizes contiguous sets of differences into difference
// sequences, thereby organizing tool output into comprehensible units").
type Sequence struct {
	Kind  SeqKind
	Left  []trace.EntryID // differing entries from the left trace
	Right []trace.EntryID // differing entries from the right trace
}

// Size returns the number of differing entries in the sequence.
func (s Sequence) Size() int { return len(s.Left) + len(s.Right) }

// Stats accounts the cost of a differencing run.
type Stats struct {
	// Compares counts trace-entry compare operations (=e evaluations) —
	// the paper's speedup unit.
	Compares int64
	// MemBytes accounts peak working memory beyond the traces themselves.
	// The LCS baseline reports its DP table. The views-based differ sums
	// real per-unit accounting at merge — memo entries, the largest DP
	// table each unit held, anchor scratch, similarity marks, sequence
	// storage — plus the two view webs' own memory (views.Web.MemBytes).
	// Every term is deterministic, so the figure is identical at any
	// ViewOptions.Parallelism.
	MemBytes int64
	// ViewExplorations counts secondary-view LCS computations performed
	// by the views-based semantics.
	ViewExplorations int64
}

// Result is the outcome of differencing a trace pair.
type Result struct {
	Left, Right *trace.Trace
	// SimilarLeft/SimilarRight are the Δ sets: entries found similar.
	SimilarLeft  EntrySet
	SimilarRight EntrySet
	// DiffLeft/DiffRight are the difference sets (ascending entry ids).
	DiffLeft  []trace.EntryID
	DiffRight []trace.EntryID
	// Sequences groups the differences into difference sequences.
	Sequences []Sequence
	Stats     Stats
}

// NumDiffs returns the total number of differing entries.
func (r *Result) NumDiffs() int { return len(r.DiffLeft) + len(r.DiffRight) }

// counter wraps EventEqual with compare-operation accounting: equal
// compares entry i of l with entry j of r, in place.
type counter struct {
	l, r     []trace.Entry
	compares int64
}

func (c *counter) equal(i, j int) bool {
	c.compares++
	return trace.EventEqual(&c.l[i], &c.r[j])
}

// diffsFromSimilar derives the difference set of one side: its non-EOF
// entries outside similar, ascending because entries are indexed by
// entry id.
func diffsFromSimilar(t *trace.Trace, similar EntrySet) []trace.EntryID {
	var out []trace.EntryID
	for i := range t.Entries {
		if e := &t.Entries[i]; e.Event.Kind != trace.KindEOF && !similar.Has(e.EID) {
			out = append(out, e.EID)
		}
	}
	return out
}

// Format renders a human-readable semantic diff: each difference sequence
// with its entries, in context. This is the "full semantic diff between
// the original and new versions" output of contribution 3.
func (r *Result) Format(max int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d differences (%d left, %d right) in %d sequences\n",
		r.NumDiffs(), len(r.DiffLeft), len(r.DiffRight), len(r.Sequences))
	for i, seq := range r.Sequences {
		if max > 0 && i >= max {
			fmt.Fprintf(&b, "... %d more sequences\n", len(r.Sequences)-max)
			break
		}
		fmt.Fprintf(&b, "--- sequence %d (%s, %d entries)\n", i+1, seq.Kind, seq.Size())
		for _, id := range seq.Left {
			fmt.Fprintf(&b, "  - %s\n", r.Left.Entries[id])
		}
		for _, id := range seq.Right {
			fmt.Fprintf(&b, "  + %s\n", r.Right.Entries[id])
		}
	}
	return b.String()
}
