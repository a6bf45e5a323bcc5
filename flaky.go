package rprism

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/diff"
	"repro/internal/regression"
	"repro/internal/trace"
	"repro/internal/views"
)

// FlakyOptions tune the flaky-cause analysis.
type FlakyOptions struct {
	// Diff tunes each pairwise differencing pass.
	Diff DiffOptions
}

// FlakySignature is one canonical difference signature (the §4.1
// cross-execution key: event kind, member, target class, enclosing
// method, arity — run-specific values excluded) with how many of the
// pairwise diffs it appeared in.
type FlakySignature struct {
	Kind   string `json:"kind"`
	Member string `json:"member,omitempty"`
	Class  string `json:"class,omitempty"`
	Method string `json:"method,omitempty"`
	NArgs  int    `json:"nargs"`
	Pairs  int    `json:"pairs"` // pairwise diffs containing the signature
}

// FlakyPair summarizes one pairwise diff.
type FlakyPair struct {
	Left     int `json:"left"`  // run index
	Right    int `json:"right"` // run index
	NumDiffs int `json:"num_diffs"`
}

// FlakyResult separates systematic behavioral divergence from
// run-to-run noise across k runs of one subject.
type FlakyResult struct {
	Runs  int         `json:"runs"`
	Pairs []FlakyPair `json:"pairs"`
	// Common holds the signatures present in EVERY pairwise diff — the
	// systematic divergence a real regression would show. Noise counts
	// the signatures that appeared in some pair but not all: the flaky
	// residue (scheduling, timing, allocation order).
	Common []FlakySignature `json:"common"`
	Noise  int              `json:"noise"`
}

// Flaky diffs k runs of the same subject pairwise and intersects the
// difference-signature sets across pairs. A signature surviving every
// pairwise diff marks divergence no pair of runs agrees on — a
// systematic cause; a signature appearing in only some pairs is
// run-to-run noise. Two runs make one pair, so with exactly two runs
// every difference is "common" — three or more runs are what give the
// intersection its noise-cancelling power.
func (e *Engine) Flaky(ctx context.Context, runs []Source, opts FlakyOptions) (*FlakyResult, error) {
	if len(runs) < 2 {
		return nil, fmt.Errorf("%w: flaky analysis needs at least 2 runs (got %d)", ErrBadRequest, len(runs))
	}
	ctx, release, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	webs := make([]*views.Web, len(runs))
	for i, src := range runs {
		if src == nil {
			return nil, fmt.Errorf("%w: flaky run %d is nil", ErrBadRequest, i)
		}
		if webs[i], err = e.Views(ctx, src); err != nil {
			return nil, err
		}
	}
	// The pairwise passes share one width, resolved once: each diff
	// spends it on its own thread-view pairs.
	pairOpts := opts.Diff
	pairOpts.Parallelism = e.intraWorkers(opts.Diff.Parallelism)

	out := &FlakyResult{Runs: len(runs), Pairs: []FlakyPair{}, Common: []FlakySignature{}}
	counts := make(map[regression.Signature]int)
	pairs := 0
	for i := 0; i < len(runs); i++ {
		for j := i + 1; j < len(runs); j++ {
			res, err := diff.ViewDiffWebsCtx(ctx, webs[i], webs[j], pairOpts)
			if err != nil {
				return nil, err
			}
			pairs++
			out.Pairs = append(out.Pairs, FlakyPair{Left: i, Right: j, NumDiffs: res.NumDiffs()})
			// One pair contributes each signature at most once, from
			// either side of its diff.
			seen := make(map[regression.Signature]bool)
			for _, eid := range res.DiffLeft {
				seen[regression.EntrySignature(res.Left.Entries[eid])] = true
			}
			for _, eid := range res.DiffRight {
				seen[regression.EntrySignature(res.Right.Entries[eid])] = true
			}
			for sig := range seen {
				counts[sig]++
			}
		}
	}
	for sig, n := range counts {
		if n < pairs {
			out.Noise++
			continue
		}
		out.Common = append(out.Common, FlakySignature{
			Kind:   sig.Kind.String(),
			Member: trace.SymStr(sig.Member),
			Class:  trace.SymStr(sig.Class),
			Method: trace.SymStr(sig.Method),
			NArgs:  sig.NArgs,
			Pairs:  n,
		})
	}
	sort.Slice(out.Common, func(i, j int) bool {
		a, b := out.Common[i], out.Common[j]
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Member != b.Member {
			return a.Member < b.Member
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.NArgs < b.NArgs
	})
	return out, nil
}

func init() {
	RegisterAnalysis(AnalysisInfo{
		Name:   "flaky",
		Doc:    "flaky-cause mining: diff k runs pairwise, intersect difference signatures — common = systematic divergence, rest = noise",
		Roles:  []string{"run1", "run2", "... (any role names; sorted lexicographically as run order)"},
		Params: "the diff tunables",
	}, func(ctx context.Context, e *Engine, req AnalysisRequest) (any, error) {
		roles := make([]string, 0, len(req.Sources))
		for role := range req.Sources {
			roles = append(roles, role)
		}
		sort.Strings(roles)
		runs := make([]Source, 0, len(roles))
		for _, role := range roles {
			if src := req.Sources[role]; src != nil {
				runs = append(runs, src)
			}
		}
		p, err := decodeParams[diffParams](req.Params)
		if err != nil {
			return nil, err
		}
		return e.Flaky(ctx, runs, FlakyOptions{Diff: p.apply(e.DefaultDiffOptions())})
	})
}
