package rprism

import (
	"context"
	"testing"

	"repro/internal/diff"
	"repro/internal/experiments"
	"repro/internal/regression"
	"repro/internal/trace"
	"repro/internal/views"
)

// pinnedDiff is what a diff decided and what it cost in the paper's
// unit: =e compares and windowed-LCS explorations.
type pinnedDiff struct {
	Compares, Explorations int64
	Diffs, Sequences       int
}

func pinOf(res *diff.Result) pinnedDiff {
	return pinnedDiff{res.Stats.Compares, res.Stats.ViewExplorations, res.NumDiffs(), len(res.Sequences)}
}

// wantPinned holds the figures the differs produced when every =e
// compare copied both entries and compared them field by field, with no
// class-key gate. How a compare is evaluated is a performance detail: it
// must never change how many compares run or what they decide.
var wantPinned = map[string]pinnedDiff{
	"pair":   {Compares: 28538, Explorations: 88, Diffs: 168, Sequences: 58},
	"quad.A": {Compares: 378480, Explorations: 829, Diffs: 2552, Sequences: 208},
	"quad.B": {Compares: 232453, Explorations: 648, Diffs: 1563, Sequences: 181},
	"quad.C": {Compares: 1357662, Explorations: 1655, Diffs: 6990, Sequences: 456},
	"lcs":    {Compares: 2227994, Diffs: 168, Sequences: 58},
}

// TestDiffSemanticsPinned runs the views differ on the rhinoPair(30)
// pair and on the three passes of a §4.1 quadruple, serially, on four
// workers, and through diff.Incremental fed the right trace in two
// batches, plus the LCS baseline on the pair (the Fig. 14b compare
// ratio), and checks every figure against wantPinned.
func TestDiffSemanticsPinned(t *testing.T) {
	l, r := rhinoPair(t, 30)
	q, err := experiments.RhinoQuad()
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		name string
		l, r *trace.Trace
	}{
		{"pair", l, r},
		{"quad.A", q.OrigRegr, q.NewRegr},
		{"quad.B", q.OrigCorrect, q.NewCorrect},
		{"quad.C", q.NewCorrect, q.NewRegr},
	}
	check := func(name, path string, res *diff.Result) {
		t.Helper()
		if got := pinOf(res); got != wantPinned[name] {
			t.Errorf("%s (%s): got %+v, want %+v", name, path, got, wantPinned[name])
		}
	}
	webs := make(map[*trace.Trace]*views.Web)
	for _, p := range pairs {
		for _, tr := range []*trace.Trace{p.l, p.r} {
			if webs[tr] == nil {
				webs[tr] = views.Build(tr)
			}
		}
	}
	for _, par := range []int{1, 4} {
		opts := diff.ViewOptions{Parallelism: par}
		for _, p := range pairs {
			check(p.name, "ViewDiffWebs", diff.ViewDiffWebs(webs[p.l], webs[p.r], opts))

			inc := diff.NewIncremental(webs[p.l], opts)
			b := views.NewIncrementalBuilder(p.r.Name)
			half := len(p.r.Entries) / 2
			var res *diff.Result
			for _, batch := range [][]trace.Entry{p.r.Entries[:half], p.r.Entries[half:]} {
				if err := b.Append(batch); err != nil {
					t.Fatal(err)
				}
				if res, _, err = inc.Rediff(context.Background(), b.Snapshot(), 0); err != nil {
					t.Fatal(err)
				}
			}
			check(p.name, "Incremental", res)
		}
		an, err := regression.AnalyzeWebs(regression.Webs{
			OrigCorrect: webs[q.OrigCorrect], NewCorrect: webs[q.NewCorrect],
			OrigRegr: webs[q.OrigRegr], NewRegr: webs[q.NewRegr],
		}, false, opts)
		if err != nil {
			t.Fatal(err)
		}
		check("quad.A", "AnalyzeWebs", an.A)
		check("quad.B", "AnalyzeWebs", an.B)
		check("quad.C", "AnalyzeWebs", an.C)
		if want := (regression.SetSizes{A: 208, B: 181, C: 456, D: 2}); an.Sizes != want || len(an.D) != 2 {
			t.Errorf("regression: %d candidates, sizes %+v; want 2, %+v", len(an.D), an.Sizes, want)
		}
	}
	lcsRes, err := diff.LCSDiff(l, r, diff.LCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check("lcs", "LCSDiff", lcsRes)
}
