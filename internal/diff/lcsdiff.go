package diff

import (
	"context"

	"repro/internal/lcs"
	"repro/internal/trace"
)

// LCSOptions configures the baseline differ.
type LCSOptions struct {
	// Algorithm selects the LCS implementation (DP with prefix/suffix
	// trimming by default).
	Algorithm lcs.Algorithm
	// MemoryBudget caps the DP table in cells; exceeding it returns
	// lcs.ErrMemoryBudget — the Table 1 out-of-memory outcome.
	MemoryBudget int64
}

// LCSDiff implements the LCS-based trace differencing semantics of
// Fig. 11: Δ is the longest common subsequence of the two traces under
// event equality =e; everything else is a difference. Contiguous runs of
// differences between consecutive correspondence points become difference
// sequences (insertion / deletion / modification).
func LCSDiff(l, r *trace.Trace, opts LCSOptions) (*Result, error) {
	return LCSDiffCtx(context.Background(), l, r, opts)
}

// LCSDiffCtx is LCSDiff with cancellation: the quadratic DP (or
// Hirschberg recursion) polls ctx between rows and aborts with its error.
func LCSDiffCtx(ctx context.Context, l, r *trace.Trace, opts LCSOptions) (*Result, error) {
	cnt := &counter{l: l.Entries, r: r.Entries}
	pairs, st, err := lcs.Compute(l.Len(), r.Len(), cnt.equal, lcs.Options{
		Algorithm:    opts.Algorithm,
		MemoryBudget: opts.MemoryBudget,
		Ctx:          ctx,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Left: l, Right: r,
		SimilarLeft: newEntrySet(l), SimilarRight: newEntrySet(r),
	}
	for _, p := range pairs {
		res.SimilarLeft.add(trace.EntryID(p.I))
		res.SimilarRight.add(trace.EntryID(p.J))
	}
	res.DiffLeft = diffsFromSimilar(l, res.SimilarLeft)
	res.DiffRight = diffsFromSimilar(r, res.SimilarRight)
	res.Sequences = gapSequences(l, r, pairs)
	res.Stats = Stats{Compares: cnt.compares, MemBytes: st.Cells * 4}
	return res, nil
}

// gapSequences converts the gaps between consecutive LCS correspondence
// points into difference sequences.
func gapSequences(l, r *trace.Trace, pairs []lcs.Pair) []Sequence {
	var out []Sequence
	li, ri := 0, 0
	emit := func(lEnd, rEnd int) {
		var seq Sequence
		for i := li; i < lEnd; i++ {
			if l.Entries[i].Event.Kind != trace.KindEOF {
				seq.Left = append(seq.Left, trace.EntryID(i))
			}
		}
		for j := ri; j < rEnd; j++ {
			if r.Entries[j].Event.Kind != trace.KindEOF {
				seq.Right = append(seq.Right, trace.EntryID(j))
			}
		}
		if seq.Size() == 0 {
			return
		}
		switch {
		case len(seq.Left) == 0:
			seq.Kind = Insert
		case len(seq.Right) == 0:
			seq.Kind = Delete
		default:
			seq.Kind = Modify
		}
		out = append(out, seq)
	}
	for _, p := range pairs {
		emit(p.I, p.J)
		li, ri = p.I+1, p.J+1
	}
	emit(l.Len(), r.Len())
	return out
}
