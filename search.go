package rprism

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/corpus"
	"repro/internal/diff"
	"repro/internal/index"
	"repro/internal/trace"
)

// SearchOptions tune the corpus-scale divergence search.
type SearchOptions struct {
	// K is how many traces to return (default 10).
	K int
	// Farthest ranks by most-divergent instead of least-divergent.
	Farthest bool
	// Exhaustive disables sketch-bound pruning and diffs every stored
	// trace — the correctness baseline the pruned path is tested and
	// benchmarked against. Results are identical either way.
	Exhaustive bool
	// Diff tunes the exact per-pair differencing of the refine stage.
	// Parallelism here is the across-candidate fan-out width (each
	// individual diff runs serial); under a worker budget it is capped at
	// 1 + the slots free when the refine stage starts.
	Diff DiffOptions
}

// SearchHit is one ranked trace of a search result.
type SearchHit struct {
	ID       string  `json:"id"`
	Name     string  `json:"name,omitempty"`
	Entries  int     `json:"entries"`
	NumDiffs int     `json:"num_diffs"` // exact, from the views differencer
	Jaccard  float64 `json:"jaccard"`   // estimated sketch similarity to the query
}

// SearchResult ranks the stored traces nearest to (or farthest from) a
// query. Hits carry exact divergence counts: pruning only ever skips
// candidates whose sketch bounds prove they cannot enter the top-K, so
// the result is identical to the exhaustive all-pairs scan.
type SearchResult struct {
	Query     string      `json:"query"` // resolved query digest
	K         int         `json:"k"`
	Farthest  bool        `json:"farthest,omitempty"`
	Corpus    int         `json:"corpus"`    // candidate pool (stored traces excluding the query)
	Evaluated int         `json:"evaluated"` // exact diffs computed
	Pruned    int         `json:"pruned"`    // candidates skipped by sketch bounds
	Hits      []SearchHit `json:"hits"`
}

// Search finds the K stored traces least (or, with opts.Farthest, most)
// divergent from the query under the exact views-differencing metric
// (diff.Result.NumDiffs), without diffing the whole corpus: candidates
// are ordered by their sketch bound — the =e-class count-vector lower
// bound for nearest, the entry-sum upper bound for farthest — and the
// scan stops as soon as the bound proves no remaining candidate can
// displace the current Kth-best exact distance. The query may be any
// Source; a corpus-backed query is excluded from its own results.
func (e *Engine) Search(ctx context.Context, query Source, opts SearchOptions) (*SearchResult, error) {
	if query == nil {
		return nil, fmt.Errorf("rprism: nil Source")
	}
	if e.store == nil {
		return nil, fmt.Errorf("rprism: Search on an engine without a corpus (construct it WithCorpus)")
	}
	if opts.K <= 0 {
		opts.K = 10
	}
	ctx, release, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	// Resolve the query's sketch and digest. A corpus source resolves
	// through the store's sketch tiers (no trace decode); anything else
	// sketches its resolved trace directly.
	var qid Digest
	var qsk *index.Sketch
	if cs, ok := query.(*corpusSource); ok {
		if qid, err = cs.digest(e); err != nil {
			return nil, err
		}
		if qsk, err = e.store.Sketch(qid); err != nil {
			return nil, err
		}
	} else {
		t, err := query.resolveTrace(ctx, e)
		if err != nil {
			return nil, err
		}
		qsk = index.SketchTrace(t)
		qid = t.ComputeDigest()
	}
	qweb, err := e.Views(ctx, query)
	if err != nil {
		return nil, err
	}

	type cand struct {
		id    Digest
		meta  corpus.Meta
		sk    *index.Sketch
		bound int // lower bound (nearest) or upper bound (farthest)
	}
	// Every member is a candidate (see corpus.Store.List), wherever its
	// files are; a trace deleted since the listing is not.
	metas := e.store.List()
	cands := make([]cand, 0, len(metas))
	for _, m := range metas {
		id, err := trace.ParseDigest(m.ID)
		if err != nil || id == qid {
			continue
		}
		sk, err := e.store.Sketch(id)
		if errors.Is(err, corpus.ErrNotFound) {
			continue
		} else if err != nil {
			return nil, err
		}
		c := cand{id: id, meta: m, sk: sk}
		if opts.Farthest {
			c.bound = index.DiffUpperBound(qsk, sk)
		} else {
			c.bound = index.DiffLowerBound(qsk, sk)
		}
		cands = append(cands, c)
	}
	// Bound order: most promising first, so the Kth-best cutoff tightens
	// as early as possible. Digest order breaks ties deterministically.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].bound != cands[j].bound {
			if opts.Farthest {
				return cands[i].bound > cands[j].bound
			}
			return cands[i].bound < cands[j].bound
		}
		return cands[i].id.String() < cands[j].id.String()
	})

	pairOpts := opts.Diff
	pairOpts.Parallelism = 1 // parallelism is spent across candidates
	par := min(e.intraWorkers(opts.Diff.Parallelism), len(cands))

	type hit struct {
		c        cand
		numDiffs int
	}
	var (
		mu      sync.Mutex
		next    int
		pruned  int
		done    []hit
		scanErr error
	)
	// kthBest returns the exact Kth-best distance among completed diffs.
	// It only ever tightens as results land, so a prune decision made
	// against it stays valid no matter how the workers interleave.
	kthBest := func() (int, bool) {
		if len(done) < opts.K {
			return 0, false
		}
		ds := make([]int, len(done))
		for i, h := range done {
			ds[i] = h.numDiffs
		}
		sort.Ints(ds)
		if opts.Farthest {
			return ds[len(ds)-opts.K], true
		}
		return ds[opts.K-1], true
	}
	worker := func() {
		for {
			mu.Lock()
			if scanErr != nil || next >= len(cands) {
				mu.Unlock()
				return
			}
			if !opts.Exhaustive {
				if cutoff, ok := kthBest(); ok {
					c := cands[next]
					// Strict inequality: a candidate whose bound ties the
					// cutoff could still tie into the top-K, so only a
					// provably-losing bound is skipped. Bounds are sorted,
					// so everything after this candidate loses too.
					if (!opts.Farthest && c.bound > cutoff) || (opts.Farthest && c.bound < cutoff) {
						pruned += len(cands) - next
						next = len(cands)
						mu.Unlock()
						return
					}
				}
			}
			c := cands[next]
			next++
			mu.Unlock()

			cweb, err := e.store.ViewsCtx(ctx, c.id)
			var res *DiffResult
			if err == nil {
				res, err = diff.ViewDiffWebsCtx(ctx, qweb, cweb, pairOpts)
			}
			mu.Lock()
			if err != nil {
				if scanErr == nil {
					scanErr = err
				}
			} else {
				done = append(done, hit{c: c, numDiffs: res.NumDiffs()})
			}
			mu.Unlock()
		}
	}
	if par <= 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		for i := 0; i < par; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); worker() }()
		}
		wg.Wait()
	}
	if scanErr != nil {
		return nil, scanErr
	}

	sort.Slice(done, func(i, j int) bool {
		if done[i].numDiffs != done[j].numDiffs {
			if opts.Farthest {
				return done[i].numDiffs > done[j].numDiffs
			}
			return done[i].numDiffs < done[j].numDiffs
		}
		return done[i].c.id.String() < done[j].c.id.String()
	})
	out := &SearchResult{
		Query:     qid.String(),
		K:         opts.K,
		Farthest:  opts.Farthest,
		Corpus:    len(cands),
		Evaluated: len(done),
		Pruned:    pruned,
		Hits:      []SearchHit{},
	}
	for i, h := range done {
		if i >= opts.K {
			break
		}
		out.Hits = append(out.Hits, SearchHit{
			ID:       h.c.id.String(),
			Name:     h.c.meta.Name,
			Entries:  h.c.meta.Entries,
			NumDiffs: h.numDiffs,
			Jaccard:  index.EstimatedJaccard(qsk, h.c.sk),
		})
	}
	return out, nil
}

func init() {
	RegisterAnalysis(AnalysisInfo{
		Name:   "search",
		Doc:    "corpus-scale divergence search: the K stored traces least (or most) divergent from the query, sketch-pruned but exact",
		Roles:  []string{"query"},
		Params: "k, farthest, exhaustive, plus the diff tunables (parallelism = across-candidate fan-out)",
	}, func(ctx context.Context, e *Engine, req AnalysisRequest) (any, error) {
		query, err := req.Source("query")
		if err != nil {
			return nil, err
		}
		p, err := decodeParams[struct {
			diffParams
			K          *int  `json:"k"`
			Farthest   *bool `json:"farthest"`
			Exhaustive *bool `json:"exhaustive"`
		}](req.Params)
		if err != nil {
			return nil, err
		}
		opts := SearchOptions{Diff: p.apply(e.DefaultDiffOptions())}
		if p.K != nil {
			opts.K = *p.K
		}
		if p.Farthest != nil {
			opts.Farthest = *p.Farthest
		}
		if p.Exhaustive != nil {
			opts.Exhaustive = *p.Exhaustive
		}
		return e.Search(ctx, query, opts)
	})
}
