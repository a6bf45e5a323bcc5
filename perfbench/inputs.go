package main

// inputs.go builds a workload's inputs from its seed before any clock
// starts: the starting corpus as RSEG upload bodies, the request mix,
// and the oracle's expected answer to every request it can send.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	rprism "repro"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/inject"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/regression"
	"repro/internal/subjects"
	"repro/internal/trace"
)

const (
	triageWarm   = "triage-warm"
	triageCold   = "triage-cold"
	ingestSearch = "ingest-search"
)

var workloadNames = []string{triageWarm, triageCold, ingestSearch}

type opKind int

const (
	opDiff opKind = iota
	opRegression
	opSearch
	opPut
	numOps
)

var opNames = [numOps]string{"diff", "regression", "search", "put"}

func (k opKind) String() string { return opNames[k] }

// Generator sizes. Every seed draws from the same distributions, so
// runs on different seeds carry comparable load.
const (
	scriptPool   = 4   // candidate test scripts per injected bug
	mtWorkers    = 3   // threads of the multithreaded subject
	mtIters      = 50  // loop iterations per thread of pair 0; pair i adds i
	corpusFams   = 10  // ingest-search: trace families in the corpus
	corpusVars   = 20  // ingest-search: stored variants per family
	corpusLen    = 300 // ingest-search: entries per trace, as the repo's search benchmarks
	searchK      = 10
	warmQuadSeed = 1 // triage-warm's quadruple, the same on every seed
	warmQuads    = 1
	warmPairs    = 1
	coldQuads    = 14 // 56 traces ...
	coldPairs    = 4  // ... plus 8: a 64-trace working set
	coldDiskKeep = 24 // traces kept on local disk below the bucket
)

// scriptStmts is experiments.RunQuant's base script size, which gives
// quadruple traces of about 1K to 5K entries. RunQuant also draws scripts
// two, three and eight times that size; every script here has the base
// size, so a seed's quadruples cost alike whichever script the bug breaks.
var scriptStmts = experiments.DefaultQuantConfig().ScriptStmts

// upload is one trace ready to send: its RSEG body and the digest the
// server must answer with.
type upload struct {
	id      trace.Digest
	entries int
	body    []byte
}

func newUpload(t *trace.Trace) (upload, error) {
	t.EnsureSyms()
	var buf bytes.Buffer
	if err := t.WriteRSEG(&buf); err != nil {
		return upload{}, fmt.Errorf("encoding %s: %w", t.Name, err)
	}
	return upload{id: t.ComputeDigest(), entries: t.Len(), body: buf.Bytes()}, nil
}

// diffWant is the oracle's answer to one POST /run/diff.
type diffWant struct {
	Left, Right  string
	NumDiffs     int
	DiffLeft     int
	DiffRight    int
	NumSequences int
	Compares     int64
	Explorations int64
}

// regrWant is the oracle's answer to one POST /run/regression.
type regrWant struct {
	Candidates int
	Sizes      regression.SetSizes
}

// request is one prepared analysis call with its expected answer.
type request struct {
	kind  opKind
	body  []byte // JSON RunRequest
	diff  *diffWant
	regr  *regrWant
	query trace.Digest // search
}

func (r *request) path() string { return "/run/" + r.kind.String() }

// workload is everything one run sends, generated from the seed.
type workload struct {
	name string
	seed int64
	// store holds the corpus bounds the server runs with; blob adds an
	// in-memory bucket below the disk tier.
	store  corpus.Options
	blob   bool
	corpus []upload // the starting corpus, uploaded during set-up
	// Triage: every distinct request of the mix, with its answer.
	diffs, regrs []*request
	// Ingest: one search per stored trace, and the unseen variants.
	queries []*request
	puts    *putPool
	// byID maps every corpus digest to the generator key that rebuilds
	// its trace, for the post-window search oracle.
	byID map[trace.Digest]corpusKey
}

// first is the request whose correct answer ends set-up.
func (w *workload) first() *request {
	if len(w.diffs) > 0 {
		return w.diffs[0]
	}
	return w.queries[0]
}

// clientMix picks each client's next request. The diff:regression
// ratio is exactly 3:1 and ingest alternates put and search; which
// trace a request names is drawn from the client's own seeded stream.
type clientMix struct {
	w   *workload
	rng *rand.Rand
	n   int
}

func newClientMix(w *workload, client int) *clientMix {
	return &clientMix{w: w, rng: rand.New(rand.NewSource(w.seed*7919 + int64(client) + 1)), n: client}
}

// next returns the next analysis request, or nil for a put.
func (m *clientMix) next() *request {
	m.n++
	if m.w.puts != nil {
		if m.n%2 == 0 {
			return nil
		}
		return m.w.queries[m.rng.Intn(len(m.w.queries))]
	}
	if m.n%4 == 0 {
		return m.w.regrs[m.rng.Intn(len(m.w.regrs))]
	}
	return m.w.diffs[m.rng.Intn(len(m.w.diffs))]
}

func generate(name string, seed int64) (*workload, error) {
	w := &workload{name: name, seed: seed}
	switch name {
	case triageWarm:
		// One quadruple is too few to average out how much one bug costs
		// to diff against another (about 1.4x between seeds), so warm's
		// quadruple is the same on every seed; the seed draws the request
		// stream, the upload order and the multithreaded pair's
		// perturbation. triage-cold draws its fourteen from the seed.
		return w, w.genTriage(warmQuads, warmPairs, warmQuadSeed)
	case triageCold:
		w.blob = true
		w.store.DiskCacheTraces = coldDiskKeep
		return w, w.genTriage(coldQuads, coldPairs, seed)
	case ingestSearch:
		return w, w.genIngest()
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// ---- triage ----

type quad struct{ origCorrect, newCorrect, origRegr, newRegr *trace.Trace }

// pairs are the diffs a quadruple answers: the three the regression
// analysis differences, then the two versions across the two scripts.
func (q quad) pairs() [6][2]*trace.Trace {
	return [6][2]*trace.Trace{
		{q.origRegr, q.newRegr}, {q.origCorrect, q.newCorrect}, {q.newCorrect, q.newRegr},
		{q.origCorrect, q.origRegr}, {q.origCorrect, q.newRegr}, {q.newCorrect, q.origRegr},
	}
}

// genTriage builds nq injected-bug §4.1 quadruples from quadSeed and np
// multithreaded pairs from the workload seed, uploads them in a seeded
// order, and asks an Engine of its own for the answer to every diff and
// regression the mix can send.
func (w *workload) genTriage(nq, np int, quadSeed int64) error {
	quads := make([]quad, nq)
	pairs := make([][2]*trace.Trace, np)
	// Every unit depends only on its index.
	err := parallel(nq+np, func(i int) (err error) {
		if i < nq {
			quads[i], err = genQuad(quadSeed, i)
		} else {
			pairs[i-nq], err = genPair(w.seed, i-nq)
		}
		return err
	})
	if err != nil {
		return err
	}

	var all []*trace.Trace
	for _, q := range quads {
		all = append(all, q.origCorrect, q.newCorrect, q.origRegr, q.newRegr)
	}
	for _, p := range pairs {
		all = append(all, p[0], p[1])
	}
	ids := make(map[*trace.Trace]string, len(all))
	w.byID = make(map[trace.Digest]corpusKey)
	for _, t := range all {
		u, err := newUpload(t)
		if err != nil {
			return err
		}
		if _, dup := w.byID[u.id]; dup {
			return fmt.Errorf("seed %d: trace %s generated twice", w.seed, t.Name)
		}
		ids[t] = u.id.String()
		w.byID[u.id] = corpusKey{}
		w.corpus = append(w.corpus, u)
	}
	rng := rand.New(rand.NewSource(w.seed))
	rng.Shuffle(len(w.corpus), func(i, j int) { w.corpus[i], w.corpus[j] = w.corpus[j], w.corpus[i] })

	// The answers come from an Engine of the benchmark's own, computed on
	// two goroutines; each lands at its request's fixed index.
	eng := rprism.NewEngine(rprism.WithWebCacheSize(len(all)))
	ctx := context.Background()
	var jobs []func() error
	addDiff := func(l, r *trace.Trace) {
		req := &request{kind: opDiff}
		w.diffs = append(w.diffs, req)
		jobs = append(jobs, func() error {
			res, err := eng.Diff(ctx, rprism.FromTrace(l), rprism.FromTrace(r))
			if err != nil {
				return err
			}
			req.diff = &diffWant{
				Left: ids[l], Right: ids[r],
				NumDiffs: res.NumDiffs(), DiffLeft: len(res.DiffLeft), DiffRight: len(res.DiffRight),
				NumSequences: len(res.Sequences),
				Compares:     res.Stats.Compares, Explorations: res.Stats.ViewExplorations,
			}
			req.body = runBody(map[string]string{"left": ids[l], "right": ids[r]})
			return nil
		})
	}
	for _, q := range quads {
		for _, p := range q.pairs() {
			addDiff(p[0], p[1])
		}
		req := &request{kind: opRegression, body: runBody(map[string]string{
			"orig_correct": ids[q.origCorrect], "new_correct": ids[q.newCorrect],
			"orig_regr": ids[q.origRegr], "new_regr": ids[q.newRegr],
		})}
		w.regrs = append(w.regrs, req)
		jobs = append(jobs, func() error {
			an, err := eng.AnalyzeRegression(ctx, rprism.RegressionSources{
				OrigCorrect: rprism.FromTrace(q.origCorrect), NewCorrect: rprism.FromTrace(q.newCorrect),
				OrigRegr: rprism.FromTrace(q.origRegr), NewRegr: rprism.FromTrace(q.newRegr),
			})
			if err != nil {
				return err
			}
			req.regr = &regrWant{Candidates: len(an.D), Sizes: an.Sizes}
			return nil
		})
	}
	for _, p := range pairs {
		addDiff(p[0], p[1])
	}
	return parallel(len(jobs), func(i int) error { return jobs[i]() })
}

// parallel runs f(0..n-1) on two goroutines and returns the first error
// by index.
func parallel(n int, f func(int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	var next atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func runBody(traces map[string]string) []byte {
	b, err := json.Marshal(map[string]any{"traces": traces})
	if err != nil {
		panic(err) // a map of strings always marshals
	}
	return b
}

// genQuad injects one test-failing bug into the Rhino-like subject, as
// experiments.RunQuant does, and traces both versions on a script the
// bug breaks and on one it leaves passing (the §4.1 protocol).
func genQuad(seed int64, i int) (quad, error) {
	// Some script pools admit no bug that passes the filters below; the
	// next attempt draws a fresh pool, still a function of (seed, i).
	for attempt := int64(0); attempt < 20; attempt++ {
		if q, ok, err := tryQuad(seed, i, attempt); ok || err != nil {
			return q, err
		}
	}
	return quad{}, fmt.Errorf("seed %d quad %d: no test-failing bug found", seed, i)
}

func tryQuad(seed int64, i int, attempt int64) (quad, bool, error) {
	prog := lang.MustParse(subjects.RhinoSource())
	scripts := make([]string, scriptPool)
	base := make([]*interp.Result, scriptPool)
	for k := range scripts {
		scripts[k] = subjects.GenScript(scriptStmts, seed*1_000_003+int64(i)*101+attempt*7_919+int64(k))
		res, err := runScript(prog, scripts[k], 2_000_000)
		if err != nil {
			return quad{}, false, err
		}
		base[k] = res
	}
	baseIDs := make([]trace.Digest, scriptPool)
	for k, res := range base {
		baseIDs[k] = res.Trace.ComputeDigest()
	}
	failing, passing := -1, -1
	mutated, _, ok := inject.InjectValidated(prog, seed*104_729+int64(i)*7+attempt*1_000_003, 50, func(m *lang.Program) bool {
		// The passing script must still run the mutated code, so all four
		// traces differ and every seed's quadruple has the same shape.
		failing, passing = -1, -1
		for k, sc := range scripts {
			// Keep bugs whose runs stay the size of the original's: a
			// loop, a ballooning trace or an early crash would make this
			// seed's requests cost unlike another seed's.
			res, err := runScript(m, sc, 2*base[k].Steps+1000)
			if err != nil || res.Trace == nil ||
				res.Trace.Len() > 2*base[k].Trace.Len() || 5*res.Trace.Len() < 4*base[k].Trace.Len() {
				return false
			}
			switch {
			case output(res) != output(base[k]):
				if failing < 0 {
					failing = k
				}
			case passing < 0 && res.Trace.ComputeDigest() != baseIDs[k]:
				passing = k
			}
		}
		return failing >= 0 && passing >= 0
	})
	if !ok {
		return quad{}, false, nil
	}
	run := func(p *lang.Program, k int, name string) (*trace.Trace, error) {
		res, err := interp.Run(p, interp.Options{Args: []string{scripts[k]}, TraceName: fmt.Sprintf("q%d-%s", i, name)})
		if err != nil {
			return nil, err
		}
		return res.Trace, nil
	}
	var q quad
	var err error
	if q.origCorrect, err = run(prog, passing, "orig-correct"); err != nil {
		return q, false, err
	}
	if q.newCorrect, err = run(mutated, passing, "new-correct"); err != nil {
		return q, false, err
	}
	if q.origRegr, err = run(prog, failing, "orig-regr"); err != nil {
		return q, false, err
	}
	q.newRegr, err = run(mutated, failing, "new-regr")
	return q, err == nil, err
}

func runScript(p *lang.Program, script string, maxSteps int) (*interp.Result, error) {
	return interp.Run(p, interp.Options{Args: []string{script}, MaxSteps: maxSteps})
}

func output(r *interp.Result) string {
	if r.Err != nil {
		return r.Output + "ERROR: " + r.Err.Msg
	}
	return r.Output
}

// genPair runs the multithreaded subject clean and with a seeded bias
// that perturbs every 17th iteration of every thread.
func genPair(seed int64, i int) ([2]*trace.Trace, error) {
	// The seed picks the perturbation; the size is fixed per pair index,
	// so every seed's pair i costs alike.
	rng := rand.New(rand.NewSource(seed*31 + int64(i)))
	iters := mtIters + i
	bias := fmt.Sprint(1 + rng.Intn(97))
	var out [2]*trace.Trace
	for k, b := range []string{"0", bias} {
		res, err := interp.Run(lang.MustParse(subjects.MultithreadedSource(mtWorkers, iters, b)),
			interp.Options{TraceName: fmt.Sprintf("mt%d-%d", i, k)})
		if err != nil {
			return out, err
		}
		if res.Err != nil && !res.Err.Aborted {
			return out, res.Err
		}
		out[k] = res.Trace
	}
	return out, nil
}

// ---- ingest-search ----

// corpusKey names a generated corpus trace: subjects.GenCorpusTrace's
// (family, variant) at corpusLen entries.
type corpusKey struct{ fam, variant int }

func (k corpusKey) trace() *trace.Trace { return subjects.GenCorpusTrace(k.fam, k.variant, corpusLen) }

// famBase offsets the seed's families so different seeds store
// different vocabularies.
func famBase(seed int64) int { return int(seed%1000)*corpusFams + 1 }

func (w *workload) genIngest() error {
	w.byID = make(map[trace.Digest]corpusKey)
	base := famBase(w.seed)
	for f := 0; f < corpusFams; f++ {
		for v := 0; v < corpusVars; v++ {
			k := corpusKey{base + f, v}
			u, err := newUpload(k.trace())
			if err != nil {
				return err
			}
			w.byID[u.id] = k
			w.corpus = append(w.corpus, u)
		}
	}
	rng := rand.New(rand.NewSource(w.seed))
	rng.Shuffle(len(w.corpus), func(i, j int) { w.corpus[i], w.corpus[j] = w.corpus[j], w.corpus[i] })
	for _, u := range w.corpus {
		w.queries = append(w.queries, &request{kind: opSearch, query: u.id,
			body: searchBody(u.id.String())})
	}
	w.puts = &putPool{seed: w.seed, base: base}
	return nil
}

func searchBody(query string) []byte {
	b, err := json.Marshal(map[string]any{
		"traces": map[string]string{"query": query},
		"params": map[string]int{"k": searchK},
	})
	if err != nil {
		panic(err)
	}
	return b
}

// putPool hands out unseen corpus variants in a fixed order: the i-th
// put is the same trace on every run of a seed.
type putPool struct {
	seed  int64
	base  int
	mu    sync.Mutex
	ready []upload // pre-encoded bodies, consumed front to back
	taken int
}

func (p *putPool) key(i int) corpusKey {
	return corpusKey{p.base + int(uint64(p.seed*2654435761+int64(i)*40503)%corpusFams), corpusVars + i}
}

// fill pre-encodes n bodies so the measured window does not pay for
// generating them.
func (p *putPool) fill(n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.ready) < n {
		u, err := newUpload(p.key(p.taken + len(p.ready)).trace())
		if err != nil {
			return err
		}
		p.ready = append(p.ready, u)
	}
	return nil
}

// next returns the next unseen variant, encoding it on the spot once
// the pre-encoded bodies run out.
func (p *putPool) next() (upload, corpusKey, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := p.key(p.taken)
	p.taken++
	if len(p.ready) > 0 {
		u := p.ready[0]
		p.ready[0] = upload{}
		p.ready = p.ready[1:]
		return u, k, nil
	}
	u, err := newUpload(k.trace())
	return u, k, err
}

// release drops the bodies the window did not use.
func (p *putPool) release() {
	p.mu.Lock()
	p.ready = nil
	p.mu.Unlock()
}
