package main

// tracing.go is the traced run. The spans are recorded here, in the
// benchmark's own files, around the calls into each layer's public
// functions: a timing wrapper around Server.Handler, a timing
// blob.Backend, and stand-ins for the diff, regression and search
// analyses and for PUT /traces that compose the same public calls the
// built-ins make, each call inside a span.

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	rprism "repro"
	"repro/internal/blob"
	"repro/internal/corpus"
	"repro/internal/diff"
	"repro/internal/index"
	"repro/internal/regression"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/views"
)

// requestIDHeader carries the client span's id to the server side.
const requestIDHeader = "X-Rprism-Request-Id"

// span is one timed call. Parent is the span whose code made the call;
// every span of one request shares Req, the id of its root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Op     string `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	Miss         bool  `json:"miss,omitempty"`         // corpus.get: a trace-cache miss
	Bytes        int64 `json:"bytes,omitempty"`        // http.request: response; blob.*: object
	Entries      int64 `json:"entries,omitempty"`      // trace.read_any
	MemBytes     int64 `json:"mem_bytes,omitempty"`    // views.build: web; diff.*: Result.Stats
	Compares     int64 `json:"compares,omitempty"`     // diff.*
	Explorations int64 `json:"explorations,omitempty"` // diff.*
	Evaluated    int64 `json:"evaluated,omitempty"`    // engine.search
	t            *tracer
}

func (s *span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

func (s *span) dur() int64 { return s.End - s.Start }

type spanKey struct{}

// refsKey carries a /run request's role → digest map from the handler
// wrapper to the stand-in analyses (a Source does not expose its digest).
type refsKey struct{}

type tracer struct {
	epoch  time.Time
	record atomic.Bool // spans are kept
	active atomic.Bool // the stand-ins serve requests
	ids    atomic.Int64

	mu    sync.Mutex
	spans []span

	store *corpus.Store
	// Shadows of the store's web and trace LRUs (same bounds, same
	// touch order) predict a web-cache miss before ViewsCtx runs, so the
	// trace read and the build can be timed apart.
	webs, traces *shadowLRU
	saved        map[string]rprism.AnalysisFunc
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span as a child of the span in ctx.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *span) {
	s := &span{ID: t.ids.Add(1), Name: name, t: t}
	if p, ok := ctx.Value(spanKey{}).(*span); ok {
		s.Parent, s.Req, s.Op = p.ID, p.Req, p.Op
	}
	s.Start = t.now()
	return context.WithValue(ctx, spanKey{}, s), s
}

// root opens a client-side request span.
func (t *tracer) root(op opKind) *span {
	id := t.ids.Add(1)
	return &span{ID: id, Req: id, Op: op.String(), Name: "http.request", Start: t.now(), t: t}
}

func (s *span) stop() { s.End = s.t.now() }

func (s *span) commit() {
	if !s.t.record.Load() {
		return
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, *s)
	s.t.mu.Unlock()
}

func (s *span) end() {
	s.stop()
	s.commit()
}

func (s *span) endDiff(res *diff.Result) {
	s.stop()
	if res != nil {
		s.Compares, s.Explorations, s.MemBytes = res.Stats.Compares, res.Stats.ViewExplorations, res.Stats.MemBytes
	}
	s.commit()
}

// take hands over the recorded spans and starts a new batch.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// ---- the server side ----

// wrap is the timing wrapper around Server.Handler.
func (t *tracer) wrap(n *node, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active.Load() {
			next.ServeHTTP(w, r)
			return
		}
		ctx := r.Context()
		if id, err := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64); err == nil {
			op := strings.TrimPrefix(r.URL.Path, "/run/")
			if r.URL.Path == "/traces" {
				op = opPut.String()
			}
			ctx = context.WithValue(ctx, spanKey{}, &span{ID: id, Req: id, Op: op})
		}
		ctx, sp := t.start(ctx, "server.handler")
		defer sp.end()
		switch {
		case r.Method == http.MethodPut && r.URL.Path == "/traces":
			t.servePut(n, w, r.WithContext(ctx))
			return
		case strings.HasPrefix(r.URL.Path, "/run/"):
			raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			var req server.RunRequest
			if json.Unmarshal(raw, &req) == nil {
				ctx = context.WithValue(ctx, refsKey{}, req.Traces)
			}
			r = r.WithContext(ctx)
			r.Body = io.NopCloser(bytes.NewReader(raw))
		}
		next.ServeHTTP(w, r)
	})
}

// servePut stands in for PUT /traces: read the body, trace.ReadAny,
// index.SketchTrace, Store.Put, Store.Meta, encode. Store.Put folds the
// same sketch into its write pass, so the traced upload sketches twice;
// tracing_overhead carries the extra call.
func (t *tracer) servePut(n *node, w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	_, sp := t.start(ctx, "trace.read_any")
	tr, err := trace.ReadAny("upload", bytes.NewReader(raw))
	sp.stop()
	if err != nil || tr.Len() == 0 {
		sp.commit()
		http.Error(w, fmt.Sprintf("not a trace: %v", err), http.StatusBadRequest)
		return
	}
	sp.Entries = int64(tr.Len())
	sp.commit()
	_, sp = t.start(ctx, "index.sketch")
	index.SketchTrace(tr)
	sp.end()
	_, sp = t.start(ctx, "corpus.put")
	id, created, err := n.store.Put(tr)
	sp.end()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	t.traces.touch(id) // Put admits the trace to the decoded LRU
	m, err := n.store.Meta(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(server.TraceInfo{ID: m.ID, Name: m.Name, Entries: m.Entries, Segments: m.Segments, Created: created})
}

// timedBucket is the blob.Backend the traced run passes in. The store
// calls its bucket with a background context, so blob spans carry no
// parent; summarize attaches each to the corpus span that encloses it.
type timedBucket struct {
	blob.Backend
	t *tracer
}

func (b *timedBucket) Put(ctx context.Context, key string, data []byte) error {
	_, sp := b.t.start(context.Background(), "blob.put")
	err := b.Backend.Put(ctx, key, data)
	sp.Bytes = int64(len(data))
	sp.end()
	return err
}

func (b *timedBucket) Get(ctx context.Context, key string) (io.ReadCloser, error) {
	_, sp := b.t.start(context.Background(), "blob.get")
	rc, err := b.Backend.Get(ctx, key)
	if err != nil {
		sp.end()
		return nil, err
	}
	return &timedReader{ReadCloser: rc, sp: sp}, nil
}

// timedReader ends a blob.get span when the object has been read and
// closed.
type timedReader struct {
	io.ReadCloser
	sp *span
}

func (r *timedReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	r.sp.Bytes += int64(n)
	return n, err
}

func (r *timedReader) Close() error {
	err := r.ReadCloser.Close()
	r.sp.end()
	return err
}

// ---- the stand-in analyses ----

// install swaps the stand-ins into the analysis registry; uninstall
// restores the built-ins.
func (t *tracer) install(store *corpus.Store) {
	t.store = store
	if t.webs == nil {
		t.webs, t.traces = newShadowLRU(8), newShadowLRU(16) // the corpus defaults
	}
	t.saved = make(map[string]rprism.AnalysisFunc)
	for name, fn := range map[string]rprism.AnalysisFunc{
		"diff": t.diffFn, "regression": t.regressionFn, "search": t.searchFn,
	} {
		t.saved[name], _ = rprism.LookupAnalysis(name)
		rprism.RegisterAnalysis(analysisInfo(name), fn)
	}
	t.active.Store(true)
}

func (t *tracer) uninstall() {
	t.active.Store(false)
	for name, fn := range t.saved {
		rprism.RegisterAnalysis(analysisInfo(name), fn)
	}
}

func analysisInfo(name string) rprism.AnalysisInfo {
	for _, info := range rprism.Analyses() {
		if info.Name == name {
			return info
		}
	}
	return rprism.AnalysisInfo{Name: name}
}

// digests reads the request's trace digests for the given roles.
func digests(ctx context.Context, roles ...string) ([]trace.Digest, error) {
	refs, _ := ctx.Value(refsKey{}).(map[string]string)
	out := make([]trace.Digest, len(roles))
	for i, role := range roles {
		d, err := trace.ParseDigest(refs[role])
		if err != nil {
			return nil, fmt.Errorf("%w: trace %q: %v", rprism.ErrBadRequest, role, err)
		}
		out[i] = d
	}
	return out, nil
}

// resolve is Store.ViewsCtx with the miss path split: on a predicted
// web-cache miss, Store.Get (tier read and decode) runs first, so the
// ViewsCtx that follows is the views.Build alone.
func (t *tracer) resolve(ctx context.Context, id trace.Digest) (*views.Web, error) {
	ctx, sp := t.start(ctx, "corpus.resolve")
	defer sp.end()
	if t.webs.touch(id) {
		return t.store.ViewsCtx(ctx, id)
	}
	_, g := t.start(ctx, "corpus.get")
	g.Miss = !t.traces.touch(id)
	_, err := t.store.Get(id)
	g.end()
	if err != nil {
		return nil, err
	}
	_, b := t.start(ctx, "views.build")
	w, err := t.store.ViewsCtx(ctx, id)
	b.stop()
	if w != nil && t.record.Load() {
		b.MemBytes = w.MemBytes()
	}
	b.commit()
	return w, err
}

func (t *tracer) resolveAll(ctx context.Context, ids []trace.Digest) ([]*views.Web, error) {
	webs := make([]*views.Web, len(ids))
	for i, id := range ids {
		var err error
		if webs[i], err = t.resolve(ctx, id); err != nil {
			return nil, err
		}
	}
	return webs, nil
}

// diffFn stands in for the "diff" analysis (Engine.DiffWith): two
// resolves, then the diff under the engine's slot-clamped parallelism.
func (t *tracer) diffFn(ctx context.Context, e *rprism.Engine, req rprism.AnalysisRequest) (any, error) {
	ctx, sp := t.start(ctx, "engine.diff")
	defer sp.end()
	ids, err := digests(ctx, "left", "right")
	if err != nil {
		return nil, err
	}
	webs, err := t.resolveAll(ctx, ids)
	if err != nil {
		return nil, err
	}
	_, d := t.start(ctx, "diff.views_diff")
	res, err := e.DiffWith(ctx, rprism.FromWeb(webs[0]), rprism.FromWeb(webs[1]), e.DefaultDiffOptions())
	d.endDiff(res)
	return res, err
}

// regressionFn stands in for the "regression" analysis
// (regression.AnalyzeWebsCtx): four resolves, the three differencing
// passes, and regression.Combine.
func (t *tracer) regressionFn(ctx context.Context, e *rprism.Engine, req rprism.AnalysisRequest) (any, error) {
	ctx, sp := t.start(ctx, "engine.regression")
	defer sp.end()
	ids, err := digests(ctx, "orig_correct", "new_correct", "orig_regr", "new_regr")
	if err != nil {
		return nil, err
	}
	w, err := t.resolveAll(ctx, ids)
	if err != nil {
		return nil, err
	}
	oc, nc, or, nr := w[0], w[1], w[2], w[3]
	pass := func(name string, l, r *views.Web) (*diff.Result, error) {
		_, p := t.start(ctx, name)
		res, err := e.DiffWith(ctx, rprism.FromWeb(l), rprism.FromWeb(r), e.DefaultDiffOptions())
		p.endDiff(res)
		return res, err
	}
	a, err := pass("regression.pass_a", or, nr)
	if err != nil {
		return nil, err
	}
	b, err := pass("regression.pass_b", oc, nc)
	if err != nil {
		return nil, err
	}
	c, err := pass("regression.pass_c", nc, nr)
	if err != nil {
		return nil, err
	}
	_, cb := t.start(ctx, "regression.combine")
	an := regression.Combine(a, b, c, false)
	cb.end()
	return an, nil
}

// searchFn stands in for the "search" analysis (Engine.Search): sketch
// lookups, bound ordering, then exact diffs in bound order until the
// Kth-best distance prunes the rest.
func (t *tracer) searchFn(ctx context.Context, e *rprism.Engine, req rprism.AnalysisRequest) (any, error) {
	ctx, sp := t.start(ctx, "engine.search")
	defer sp.end()
	ids, err := digests(ctx, "query")
	if err != nil {
		return nil, err
	}
	qid := ids[0]
	var p struct {
		K int `json:"k"`
	}
	if len(req.Params) > 0 {
		if err := json.Unmarshal(req.Params, &p); err != nil {
			return nil, fmt.Errorf("%w: %v", rprism.ErrBadRequest, err)
		}
	}
	if p.K <= 0 {
		p.K = 10
	}

	type cand struct {
		id    trace.Digest
		meta  corpus.Meta
		sk    *index.Sketch
		bound int
	}
	_, cs := t.start(ctx, "corpus.sketches")
	var cands []cand
	qsk, err := t.sketches(qid)
	if err == nil {
		for _, m := range t.store.List() {
			id, perr := trace.ParseDigest(m.ID)
			if perr != nil || id == qid {
				continue
			}
			sk, serr := t.store.Sketch(id)
			if serr != nil {
				err = serr
				break
			}
			cands = append(cands, cand{id: id, meta: m, sk: sk})
		}
	}
	cs.end()
	if err != nil {
		return nil, err
	}
	qweb, err := t.resolve(ctx, qid)
	if err != nil {
		return nil, err
	}
	_, bs := t.start(ctx, "index.bounds")
	for i := range cands {
		cands[i].bound = index.DiffLowerBound(qsk, cands[i].sk)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].bound != cands[j].bound {
			return cands[i].bound < cands[j].bound
		}
		return cands[i].id.String() < cands[j].id.String()
	})
	bs.end()

	// The server runs -parallel 1, so Engine.Search evaluates candidates
	// one at a time, each diff serial; so does the stand-in.
	pairOpts := e.DefaultDiffOptions()
	pairOpts.Parallelism = 1
	type hit struct {
		c        cand
		numDiffs int
	}
	var done []hit
	kthBest := func() (int, bool) {
		if len(done) < p.K {
			return 0, false
		}
		ds := make([]int, len(done))
		for i, h := range done {
			ds[i] = h.numDiffs
		}
		sort.Ints(ds)
		return ds[p.K-1], true
	}
	for _, c := range cands {
		if cutoff, ok := kthBest(); ok && c.bound > cutoff {
			break // bounds are sorted: no later candidate can enter the top K
		}
		cweb, err := t.resolve(ctx, c.id)
		if err != nil {
			return nil, err
		}
		_, d := t.start(ctx, "diff.views_diff")
		res, err := diff.ViewDiffWebsCtx(ctx, qweb, cweb, pairOpts)
		d.endDiff(res)
		if err != nil {
			return nil, err
		}
		done = append(done, hit{c: c, numDiffs: res.NumDiffs()})
	}
	sort.Slice(done, func(i, j int) bool {
		if done[i].numDiffs != done[j].numDiffs {
			return done[i].numDiffs < done[j].numDiffs
		}
		return done[i].c.id.String() < done[j].c.id.String()
	})
	out := &rprism.SearchResult{Query: qid.String(), K: p.K, Corpus: len(cands),
		Evaluated: len(done), Pruned: len(cands) - len(done), Hits: []rprism.SearchHit{}}
	for i, h := range done {
		if i >= p.K {
			break
		}
		out.Hits = append(out.Hits, rprism.SearchHit{ID: h.c.id.String(), Name: h.c.meta.Name,
			Entries: h.c.meta.Entries, NumDiffs: h.numDiffs, Jaccard: index.EstimatedJaccard(qsk, h.c.sk)})
	}
	sp.Evaluated = int64(len(done))
	return out, nil
}

// sketches runs the index preparation Engine.Search starts with.
func (t *tracer) sketches(qid trace.Digest) (*index.Sketch, error) {
	if err := t.store.EnsureIndexed(); err != nil {
		return nil, err
	}
	return t.store.Sketch(qid)
}

// shadowLRU replays the touch order of one of the store's LRUs.
type shadowLRU struct {
	mu    sync.Mutex
	cap   int
	order *list.List
	at    map[trace.Digest]*list.Element
}

func newShadowLRU(capacity int) *shadowLRU {
	return &shadowLRU{cap: capacity, order: list.New(), at: make(map[trace.Digest]*list.Element)}
}

// touch moves id to the front and reports whether it was resident.
func (l *shadowLRU) touch(id trace.Digest) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.at[id]; ok {
		l.order.MoveToFront(el)
		return true
	}
	l.at[id] = l.order.PushFront(id)
	for l.order.Len() > l.cap {
		old := l.order.Back()
		l.order.Remove(old)
		delete(l.at, old.Value.(trace.Digest))
	}
	return false
}
