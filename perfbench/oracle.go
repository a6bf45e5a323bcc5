package main

// oracle.go checks every response. Diff and regression answers were
// computed at set-up by an Engine of the benchmark's own; uploads must
// echo the digest the generator computed; every search is checked for
// shape on arrival, and a seeded sample is checked after the window
// against an exhaustive search of the corpus state it saw.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"

	rprism "repro"
	"repro/internal/server"
	"repro/internal/trace"
)

// searchSamples is how many searches the post-window oracle re-runs
// exhaustively.
const searchSamples = 4

type oracle struct {
	w *workload
	// tamper, when set, rewrites each response body before it is
	// checked; the self-test uses it to prove a wrong answer fails.
	tamper func([]byte) []byte

	mu      sync.Mutex
	putLog  []trace.Digest // uploads answered after set-up, in order
	putKeys map[trace.Digest]corpusKey
	// sample is a seeded reservoir of searchSamples answers drawn
	// uniformly from the seen answered searches, so the oracle's memory
	// does not grow with the number of requests.
	sample []*searchSeen
	seen   int
	rng    *rand.Rand
}

// searchSeen is one search answer awaiting the post-window check.
type searchSeen struct {
	query  trace.Digest
	res    rprism.SearchResult
	putsLo int // uploads answered before the search was sent
	putsHi int // uploads answered by the time its answer arrived
}

type searchWire struct {
	Analysis string              `json:"analysis"`
	Result   rprism.SearchResult `json:"result"`
}

func (o *oracle) putsDone() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.putLog)
}

// checkPut verifies an upload answer: stored as new, under the digest
// and entry count the generator computed.
func (o *oracle) checkPut(status int, body []byte, u upload) error {
	if o.tamper != nil {
		body = o.tamper(body)
	}
	if status != http.StatusCreated {
		return fmt.Errorf("upload: status %d: %.200s", status, body)
	}
	var info server.TraceInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	if info.ID != u.id.String() || info.Entries != u.entries || !info.Created {
		return fmt.Errorf("upload: got id %s entries %d created %v, want %s %d true",
			info.ID, info.Entries, info.Created, u.id, u.entries)
	}
	return nil
}

// logPut records an upload answered after set-up.
func (o *oracle) logPut(id trace.Digest, k corpusKey) {
	o.mu.Lock()
	if o.putKeys == nil {
		o.putKeys = make(map[trace.Digest]corpusKey)
	}
	o.putLog = append(o.putLog, id)
	o.putKeys[id] = k
	o.mu.Unlock()
}

// check verifies one analysis answer. seen carries a search's
// send-time state; nil outside the window.
func (o *oracle) check(r *request, status int, body []byte, seen *searchSeen) error {
	if o.tamper != nil {
		body = o.tamper(body)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", r.kind, status, body)
	}
	switch r.kind {
	case opDiff:
		var got server.DiffResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("diff: %w", err)
		}
		want := r.diff
		if got.Left != want.Left || got.Right != want.Right || got.NumDiffs != want.NumDiffs ||
			got.DiffLeft != want.DiffLeft || got.DiffRight != want.DiffRight ||
			got.NumSequences != want.NumSequences || got.Compares != want.Compares ||
			got.Explorations != want.Explorations {
			return fmt.Errorf("diff %s..%s: got num_diffs %d compares %d, want %d %d",
				want.Left[:12], want.Right[:12], got.NumDiffs, got.Compares, want.NumDiffs, want.Compares)
		}
	case opRegression:
		var got server.AnalyzeResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("regression: %w", err)
		}
		if got.Candidates != r.regr.Candidates || got.Sizes != r.regr.Sizes {
			return fmt.Errorf("regression: got %d candidates %+v, want %d %+v",
				got.Candidates, got.Sizes, r.regr.Candidates, r.regr.Sizes)
		}
	case opSearch:
		var got searchWire
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("search: %w", err)
		}
		if err := o.checkSearchShape(r.query, &got.Result); err != nil {
			return err
		}
		if seen != nil {
			seen.res = got.Result
			seen.putsHi = o.putsDone()
			o.keep(seen)
		}
	default:
		return fmt.Errorf("no oracle for %s", r.kind)
	}
	return nil
}

// keep offers one search answer to the reservoir.
func (o *oracle) keep(s *searchSeen) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.rng == nil {
		o.rng = rand.New(rand.NewSource(o.w.seed))
	}
	o.seen++
	if len(o.sample) < searchSamples {
		o.sample = append(o.sample, s)
	} else if j := o.rng.Intn(o.seen); j < searchSamples {
		o.sample[j] = s
	}
}

// checkSearchShape holds for every search answer: the query echoed, K
// hits of the corpus's trace length ranked by exact distance with
// digest tie-break, the query not among them, and a candidate pool no
// smaller than the starting corpus.
func (o *oracle) checkSearchShape(q trace.Digest, res *rprism.SearchResult) error {
	if res.Query != q.String() || res.K != searchK || len(res.Hits) != searchK {
		return fmt.Errorf("search %s: got query %s k %d hits %d", q.String()[:12], res.Query, res.K, len(res.Hits))
	}
	if res.Corpus < len(o.w.corpus)-1 || res.Evaluated < len(res.Hits) {
		return fmt.Errorf("search %s: corpus %d evaluated %d", q.String()[:12], res.Corpus, res.Evaluated)
	}
	for i, h := range res.Hits {
		if h.ID == res.Query || h.Entries != corpusLen {
			return fmt.Errorf("search %s: hit %d is the query or has %d entries", q.String()[:12], i, h.Entries)
		}
		if i > 0 {
			p := res.Hits[i-1]
			if p.NumDiffs > h.NumDiffs || (p.NumDiffs == h.NumDiffs && p.ID >= h.ID) {
				return fmt.Errorf("search %s: hits out of order at rank %d", q.String()[:12], i)
			}
		}
	}
	return nil
}

// verifySearches re-runs the sampled searches as exhaustive scans
// through an Engine of the oracle's own, over the corpus state each one
// saw, and returns how many disagree.
func (o *oracle) verifySearches(ctx context.Context) (checked, failed int, err error) {
	o.mu.Lock()
	sample, log := o.sample, o.putLog
	keys := make(map[trace.Digest]corpusKey, len(o.w.byID)+len(o.putKeys))
	for id, k := range o.w.byID {
		keys[id] = k
	}
	for id, k := range o.putKeys {
		keys[id] = k
	}
	o.mu.Unlock()
	if len(sample) == 0 {
		return 0, 0, nil
	}
	initial := make([]trace.Digest, len(o.w.corpus))
	for i, u := range o.w.corpus {
		initial[i] = u.id
	}
	// The states searchMatches tries hold the starting corpus and at most
	// the first k+1 uploads; no later upload needs a distance.
	cands := append([]trace.Digest{}, initial...)
	last := 0
	for _, s := range sample {
		last = max(last, s.res.Corpus-(len(initial)-1)+1)
	}
	cands = append(cands, log[:min(max(last, 0), len(log))]...)

	eng := rprism.NewEngine()
	// Distances from each sampled query to every candidate; one pass
	// regenerates each candidate trace once.
	queries := make(map[trace.Digest]rprism.Source)
	for _, s := range sample {
		if _, ok := queries[s.query]; !ok {
			web, err := eng.Views(ctx, rprism.FromTrace(keys[s.query].trace()))
			if err != nil {
				return 0, 0, err
			}
			queries[s.query] = rprism.FromWeb(web)
		}
	}
	dist := make(map[[2]trace.Digest]int)
	for _, id := range cands {
		c := rprism.FromTrace(keys[id].trace())
		for qid, q := range queries {
			if qid == id {
				continue
			}
			res, err := eng.Diff(ctx, q, c)
			if err != nil {
				return 0, 0, err
			}
			dist[[2]trace.Digest{qid, id}] = res.NumDiffs()
		}
	}
	for _, s := range sample {
		checked++
		if !o.searchMatches(s, initial, log, dist) {
			failed++
		}
	}
	return checked, failed, nil
}

// searchMatches compares one answer with the exhaustive top-K of the
// corpus state it reports: the starting corpus plus the first k
// answered uploads, k read off the answer's candidate count. Two
// uploads in flight together may land in either order, so the state
// with the last two swapped is accepted too.
func (o *oracle) searchMatches(s *searchSeen, initial, log []trace.Digest, dist map[[2]trace.Digest]int) bool {
	k := s.res.Corpus - (len(initial) - 1)
	if k < s.putsLo || k > s.putsHi+clients || k > len(log) {
		return false
	}
	states := [][]trace.Digest{log[:k]}
	if k > 0 && k < len(log) {
		states = append(states, append(append([]trace.Digest{}, log[:k-1]...), log[k]))
	}
	for _, puts := range states {
		if topKEqual(s, append(append([]trace.Digest{}, initial...), puts...), dist) {
			return true
		}
	}
	return false
}

func topKEqual(s *searchSeen, state []trace.Digest, dist map[[2]trace.Digest]int) bool {
	type cand struct {
		id string
		d  int
	}
	var cs []cand
	for _, id := range state {
		if id == s.query {
			continue
		}
		cs = append(cs, cand{id.String(), dist[[2]trace.Digest{s.query, id}]})
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].d != cs[j].d {
			return cs[i].d < cs[j].d
		}
		return cs[i].id < cs[j].id
	})
	if len(cs) < searchK || len(s.res.Hits) != searchK {
		return false
	}
	for i, h := range s.res.Hits {
		if h.ID != cs[i].id || h.NumDiffs != cs[i].d {
			return false
		}
	}
	return true
}
