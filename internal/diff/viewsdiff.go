package diff

import (
	"context"
	"runtime"
	"sort"
	"sync"

	"repro/internal/trace"
	"repro/internal/views"
)

// ViewOptions are the tunables of the views-based differencing semantics.
type ViewOptions struct {
	// Window is ω: the fixed window size (entries on each side of the
	// linking entry) for LCS over correlated secondary views.
	Window int
	// Radius is δ: how far around the differing entries the linked
	// secondary views are collected (SIMILAR-FROM-LINKED-VIEWS).
	Radius int
	// MaxScan bounds the search for the next correspondence point in the
	// primary views, keeping the evaluation linear.
	MaxScan int
	// QuickScan is the cheap lookahead tried before secondary-view
	// exploration: divergences that resynchronize within this many skipped
	// entries (a handful of genuinely changed events) skip the exploration
	// machinery entirely.
	QuickScan int
	// MaxExplore caps the number of windowed-LCS computations per
	// divergence point, bounding per-divergence work by a constant — part
	// of the linear-complexity argument.
	MaxExplore int
	// Relaxed enables the context-sensitive correlation relaxation of §5:
	// views also correlate when their linking entries are the same
	// distance from the current point of divergence, tolerating renames
	// and split/merged methods. Relaxed pairs are only explored when the
	// standard correlation functions produced no usable anchors.
	Relaxed bool
	// Parallelism is the number of worker goroutines evaluating
	// correlated thread-view pairs concurrently. Each pair is an
	// independent work unit with its own similarity sets, memo table, and
	// counters; unit outputs are merged in ascending-left-tid order, so
	// the Result is byte-identical for every setting. 0 means
	// GOMAXPROCS; 1 is the serial path (no goroutines spawned).
	Parallelism int
}

// DefaultViewOptions returns the configuration used throughout the
// evaluation.
func DefaultViewOptions() ViewOptions {
	return ViewOptions{Window: 15, Radius: 8, MaxScan: 1000, QuickScan: 2,
		MaxExplore: 32, Relaxed: true}
}

func (o ViewOptions) withDefaults() ViewOptions {
	d := DefaultViewOptions()
	if o.Window == 0 {
		o.Window = d.Window
	}
	if o.Radius == 0 {
		o.Radius = d.Radius
	}
	if o.MaxScan == 0 {
		o.MaxScan = d.MaxScan
	}
	if o.QuickScan == 0 {
		o.QuickScan = d.QuickScan
	}
	if o.MaxExplore == 0 {
		o.MaxExplore = d.MaxExplore
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	return o
}

// ViewDiff implements the views-based trace differencing semantics of
// Fig. 12. Correlated thread-view pairs (XTH) are evaluated in lock step:
// equal heads are consumed into Δ (STEP-VIEW-MATCH); at divergence points
// the secondary views linked near the diverging entries are explored with
// windowed LCS to find semantically similar entries — possibly very far
// apart in the thread views — and evaluation resumes at the next point of
// correspondence (STEP-VIEW-NOMATCH). The union of all pairs' Δ sets
// yields the final similarity set; differences follow by subtraction.
func ViewDiff(l, r *trace.Trace, opts ViewOptions) *Result {
	return ViewDiffWebs(views.Build(l), views.Build(r), opts)
}

// ViewDiffWebs runs the views-based differencing semantics over
// pre-built view webs, skipping web construction entirely. This is the
// entry point for callers that amortize Build across many diffs — the
// corpus view cache hands the same *views.Web to concurrent requests.
// The webs (and their underlying traces) are only read, never written,
// so any number of ViewDiffWebs calls may share them; all mutable
// differencing state is per-call.
func ViewDiffWebs(wl, wr *views.Web, opts ViewOptions) *Result {
	res, _ := ViewDiffWebsCtx(context.Background(), wl, wr, opts)
	return res
}

// ViewDiffWebsCtx is ViewDiffWebs with cancellation and intra-diff
// parallelism. The paper's semantics evaluate each correlated
// thread-view pair independently, so the evaluation decomposes into one
// work unit per pair: units carry all mutable state (similarity marks,
// memo table, compare counter, anchor scratch, cancellation poller) and
// run on a bounded pool of ViewOptions.Parallelism workers. Their
// outputs are merged in ascending-left-tid order, which makes sequence
// ordering, filterSequences behavior, and Stats deterministic — the
// Result is byte-identical to the serial path regardless of scheduling.
//
// Cancellation: every unit polls ctx in its hot loops (lock-step pair
// walking, correspondence scans, DP rows); when ctx is canceled all
// units unwind within microseconds, queued units never start, and the
// context's error is returned with a nil result. This is the hook that
// lets the analysis service kill runaway diffs.
func ViewDiffWebsCtx(ctx context.Context, wl, wr *views.Web, opts ViewOptions) (*Result, error) {
	opts = opts.withDefaults()
	tm := views.MatchThreads(wl.Trace, wr.Trace)
	lids := pairOrder(tm)
	units := make([]*unit, len(lids))
	for i, lid := range lids {
		units[i] = newUnit(ctx, opts, wl, wr, lid, tm.Pairs[lid])
	}
	runUnits(ctx, units, opts.Parallelism)
	for _, u := range units {
		if u.err != nil {
			return nil, u.err
		}
	}

	// The units' marks OR into one whole-trace set per side.
	simL, simR := newEntrySet(wl.Trace), newEntrySet(wr.Trace)
	for _, u := range units {
		u.markL.each(u.tvL, simL.add)
		u.markR.each(u.tvR, simR.add)
	}
	return assemble(wl, wr, tm, units, simL, simR,
		diffsFromSimilar(wl.Trace, simL), diffsFromSimilar(wr.Trace, simR)), nil
}

// pairOrder returns the matched left tids in ascending order. Units are
// created, and their outputs assembled, in this order, which makes the
// Result independent of map iteration and scheduling.
func pairOrder(tm views.ThreadMatch) []trace.ThreadID {
	lids := make([]trace.ThreadID, 0, len(tm.Pairs))
	for lid := range tm.Pairs {
		lids = append(lids, lid)
	}
	sort.Slice(lids, func(i, j int) bool { return lids[i] < lids[j] })
	return lids
}

// assemble finishes a Result from units evaluated in pairOrder and the
// union of their similarity marks (simL, simR) with the difference sets
// it leaves. Sequences concatenate in unit order, followed by the
// unmatched threads' whole views; filtering runs last, because a unit
// may mark entries inside another unit's sequences via cross-thread
// anchors. Stats sum the units' counters plus both webs' memory. Both
// ViewDiffWebsCtx and Incremental.Rediff finish here, which is what
// makes an incremental Result byte-identical to a from-scratch one over
// the same snapshot: the per-unit outputs are equal, and assembly is a
// pure function of them.
func assemble(wl, wr *views.Web, tm views.ThreadMatch, units []*unit,
	simL, simR EntrySet, diffL, diffR []trace.EntryID) *Result {
	res := &Result{
		Left: wl.Trace, Right: wr.Trace,
		SimilarLeft: simL, SimilarRight: simR,
		DiffLeft: diffL, DiffRight: diffR,
	}
	st := &res.Stats
	for _, u := range units {
		res.Sequences = append(res.Sequences, u.seqs...)
		st.Compares += u.compares
		st.ViewExplorations += u.explorations
		st.MemBytes += u.memBytes()
	}
	st.MemBytes += wl.MemBytes() + wr.MemBytes()

	// Unmatched threads: everything they did is a difference.
	for _, lid := range tm.LeftOnly {
		if v := wl.ThreadView(lid); v != nil {
			res.Sequences = append(res.Sequences, Sequence{Kind: Delete, Left: v.EIDs})
		}
	}
	for _, rid := range tm.RightOnly {
		if v := wr.ThreadView(rid); v != nil {
			res.Sequences = append(res.Sequences, Sequence{Kind: Insert, Right: v.EIDs})
		}
	}
	res.Sequences = filterSequences(res.Sequences, simL, simR)
	return res
}

// runUnits evaluates the units on a bounded worker pool. workers <= 1
// (or a single unit) runs inline on the caller's goroutine — the serial
// path spawns nothing. A canceled context is observed before each unit
// starts, so pending units fail fast instead of evaluating.
func runUnits(ctx context.Context, units []*unit, workers int) {
	if workers > len(units) {
		workers = len(units)
	}
	if workers <= 1 {
		for _, u := range units {
			if err := ctx.Err(); err != nil {
				u.err = err
				return
			}
			u.evalPair()
			if u.err != nil {
				return
			}
		}
		return
	}
	work := make(chan *unit, len(units))
	for _, u := range units {
		work <- u
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range work {
				if err := ctx.Err(); err != nil {
					u.err = err // drain cheaply; evalPair never starts
					continue
				}
				u.evalPair()
			}
		}()
	}
	wg.Wait()
}

// filterSequences drops entries that later exploration marked similar and
// removes empty sequences, re-deriving each sequence's kind. It runs on
// the merged sequence list with the merged similarity sets: anchors found
// by one unit can mark entries inside another unit's sequences, so
// filtering must happen after the merge.
func filterSequences(seqs []Sequence, similarLeft, similarRight EntrySet) []Sequence {
	out := seqs[:0]
	for _, s := range seqs {
		var left, right []trace.EntryID
		for _, id := range s.Left {
			if !similarLeft.Has(id) {
				left = append(left, id)
			}
		}
		for _, id := range s.Right {
			if !similarRight.Has(id) {
				right = append(right, id)
			}
		}
		if len(left)+len(right) == 0 {
			continue
		}
		kind := Modify
		switch {
		case len(left) == 0:
			kind = Insert
		case len(right) == 0:
			kind = Delete
		}
		out = append(out, Sequence{Kind: kind, Left: left, Right: right})
	}
	return out
}
