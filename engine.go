package rprism

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/corpus"
	"repro/internal/diff"
	"repro/internal/impact"
	"repro/internal/lru"
	"repro/internal/protocol"
	"repro/internal/regression"
	"repro/internal/sentinel"
	"repro/internal/trace"
	"repro/internal/views"
)

// Engine is the shared entry point of the analysis family: construct one
// per process (or per tenant) with functional options, feed it traces
// through Sources, and run any registered analysis against it. The CLI,
// the rprism-serve service, and the bench harness all drive the same
// Engine, which owns the cross-cutting concerns the free functions never
// could: a view-web cache shared across analyses, an optional
// corpus-backed store, a worker budget, default differencing options —
// and cancellation: every analysis method takes a context.Context that is
// honored inside the hot loops (views.BuildCtx, diff.ViewDiffWebsCtx,
// the LCS DP rows), so a canceled request stops burning CPU within
// microseconds.
//
// An Engine is safe for concurrent use by any number of goroutines.
type Engine struct {
	store    *corpus.Store
	diffOpts diff.ViewOptions
	workers  chan struct{} // nil: unbounded

	sentinelOpts sentinel.Options

	// webs caches the webs of in-memory traces (FromTrace), keyed by
	// trace identity.
	webs *lru.Cache[*trace.Trace, *views.Web]

	mu       sync.Mutex
	sentinel *sentinel.Monitor // lazily created by Sentinel()
}

// EngineOption configures an Engine at construction.
type EngineOption func(*Engine)

// WithCorpus backs the engine with a content-addressed trace store:
// FromCorpus sources resolve through it, and its single-flight view-web
// cache is shared with every other consumer of the store.
func WithCorpus(store *corpus.Store) EngineOption {
	return func(e *Engine) { e.store = store }
}

// WithWorkers bounds the number of concurrently executing analyses. A
// caller over budget blocks until a slot frees or its context ends.
// Zero or negative n means unbounded (the default).
func WithWorkers(n int) EngineOption {
	return func(e *Engine) {
		if n > 0 {
			e.workers = make(chan struct{}, n)
		}
	}
}

// WithDiffOptions sets the default views-differencing tunables used by
// Diff, AnalyzeRegression, and Impact when the caller does not override
// them per call.
func WithDiffOptions(o DiffOptions) EngineOption {
	return func(e *Engine) { e.diffOpts = o }
}

// WithDiffParallelism sets the default intra-diff worker count: how many
// goroutines one views-based diff uses to evaluate its correlated
// thread-view pairs concurrently (0 keeps the diff layer's default,
// GOMAXPROCS; 1 forces the serial path). Results are byte-identical at
// any setting.
//
// Under a WithWorkers budget the width is capped, once per diff, at the
// analysis's own slot plus the slots free when the diff starts. The
// extra workers hold no slot: an analysis arriving mid-diff takes a free
// slot at once instead of queueing behind them. Under load fewer slots
// are free and diffs start narrower, toward serial. The budget thus
// bounds analyses, not diff workers: a diff keeps its start-time width,
// so with W slots, analyses started one after another can run W, W-1,
// ..., 1 wide at once — up to W(W+1)/2 workers while the earliest wide
// diff runs, each holding its own windowed-LCS scratch (about 1 MB at
// the largest accepted window, 1024). Watch evaluations resolve their
// width by the same rule each time they run. Web builds are one serial
// pass and do not follow this setting.
func WithDiffParallelism(n int) EngineOption {
	return func(e *Engine) {
		if n > 0 {
			e.diffOpts.Parallelism = n
		}
	}
}

// WithWebCacheSize bounds the engine's own web cache for non-corpus
// sources (default 32 webs; the least recently used goes first).
// Corpus-backed sources are cached by the store instead and do not count
// against this bound.
func WithWebCacheSize(n int) EngineOption {
	return func(e *Engine) {
		if n > 0 {
			e.webs = lru.New[*trace.Trace, *views.Web](n)
		}
	}
}

// NewEngine constructs an engine. With no options it is self-contained:
// in-process web caching, unbounded workers, default DiffOptions, the
// process-wide symbol table, and no corpus (FromCorpus sources fail).
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{webs: lru.New[*trace.Trace, *views.Web](32)}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Corpus returns the engine's trace store, or nil when it has none.
func (e *Engine) Corpus() *corpus.Store { return e.store }

// DefaultDiffOptions returns the engine's default differencing tunables.
func (e *Engine) DefaultDiffOptions() DiffOptions { return e.diffOpts }

// SymbolStats reports the statistics of the process-wide symbol table
// every trace interns into.
func (e *Engine) SymbolStats() trace.SymbolStats {
	return trace.GlobalSymbolStats()
}

// slotKey marks a context as already holding this engine's worker slot,
// making acquire reentrant: an analysis that calls other engine methods
// (RunAnalysis → DiffWith → Views) claims exactly one slot for the whole
// call tree instead of deadlocking on itself.
type slotKey struct{}

// acquire claims a worker slot (when a budget is configured), honoring
// ctx while waiting. It returns the context to run the analysis under —
// tagged with the slot when one was claimed — and a release func the
// caller must defer after a nil error.
func (e *Engine) acquire(ctx context.Context) (context.Context, func(), error) {
	noop := func() {}
	if err := ctx.Err(); err != nil {
		return ctx, noop, err
	}
	if e.workers == nil {
		return ctx, noop, nil
	}
	if held, _ := ctx.Value(slotKey{}).(*Engine); held == e {
		return ctx, noop, nil // reentrant: the caller's slot covers us
	}
	select {
	case e.workers <- struct{}{}:
		return context.WithValue(ctx, slotKey{}, e), func() { <-e.workers }, nil
	case <-ctx.Done():
		return ctx, noop, ctx.Err()
	}
}

// intraWorkers resolves the intra-diff width for an analysis that
// already holds its worker slot: the request (0 = engine default, then
// GOMAXPROCS), capped under a WithWorkers budget at 1 + the slots free
// right now. The width is read once, when the diff starts; no slot is
// claimed for it, so a request arriving mid-diff is never queued behind
// inner workers.
func (e *Engine) intraWorkers(requested int) int {
	par := requested
	if par == 0 {
		par = e.diffOpts.Parallelism
	}
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if e.workers != nil {
		par = min(par, 1+cap(e.workers)-len(e.workers))
	}
	return max(par, 1)
}

// cachedWeb returns the engine-cached web for a trace, building it under
// ctx on a miss. The build is one serial pass on the caller's goroutine,
// so it runs inside the analysis's own slot and resolves no width.
// Concurrent misses on one trace share one build, by the same
// single-flight rule as the corpus's web tier (see lru.Cache.Do).
func (e *Engine) cachedWeb(ctx context.Context, t *trace.Trace) (*views.Web, error) {
	return e.webs.Do(ctx, t, func(ctx context.Context) (*views.Web, error) {
		return views.BuildCtx(ctx, t)
	})
}

// Views resolves a source to its (cached) view web — the Engine form of
// BuildViews. Analyses that need direct web access (custom traversals,
// view listings) start here. Web construction is heavy, so Views counts
// against the worker budget like any other analysis entry point.
func (e *Engine) Views(ctx context.Context, src Source) (*Web, error) {
	if src == nil {
		return nil, fmt.Errorf("rprism: nil Source")
	}
	ctx, release, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return src.resolve(ctx, e)
}

// Diff runs the views-based differencing of Fig. 12 over two sources
// with the engine's default options.
func (e *Engine) Diff(ctx context.Context, left, right Source) (*DiffResult, error) {
	return e.DiffWith(ctx, left, right, e.diffOpts)
}

// DiffWith is Diff with per-call differencing options. The effective
// intra-diff parallelism is the per-call Parallelism, else the engine's
// WithDiffParallelism default, else GOMAXPROCS — capped, when the diff
// starts, at 1 + the WithWorkers slots free at that moment.
func (e *Engine) DiffWith(ctx context.Context, left, right Source, opts DiffOptions) (*DiffResult, error) {
	ctx, release, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	wl, err := e.Views(ctx, left)
	if err != nil {
		return nil, err
	}
	wr, err := e.Views(ctx, right)
	if err != nil {
		return nil, err
	}
	opts.Parallelism = e.intraWorkers(opts.Parallelism)
	return diff.ViewDiffWebsCtx(ctx, wl, wr, opts)
}

// DiffLCS runs the quadratic LCS baseline of Fig. 11 over two sources.
// Unlike the views path it needs raw traces, not webs, so sources
// resolve down to their traces here — no web is built or cached.
func (e *Engine) DiffLCS(ctx context.Context, left, right Source, opts LCSOptions) (*DiffResult, error) {
	if left == nil || right == nil {
		return nil, fmt.Errorf("rprism: nil Source")
	}
	ctx, release, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	l, err := left.resolveTrace(ctx, e)
	if err != nil {
		return nil, err
	}
	r, err := right.resolveTrace(ctx, e)
	if err != nil {
		return nil, err
	}
	return diff.LCSDiffCtx(ctx, l, r, opts)
}

// RegressionSources names the four traces of the §4.1 analysis protocol
// as engine sources, plus the set-algebra mode.
type RegressionSources struct {
	OrigCorrect Source // original version, non-regressing test
	NewCorrect  Source // new version, non-regressing test
	OrigRegr    Source // original version, regressing test
	NewRegr     Source // new version, regressing test
	// Removal switches to D = (A − B) − C for regressions caused by code
	// removed in the new version.
	Removal bool
}

// AnalyzeRegression runs the full regression-cause analysis over four
// sources with the engine's default differencing options.
func (e *Engine) AnalyzeRegression(ctx context.Context, in RegressionSources) (*RegressionAnalysis, error) {
	return e.AnalyzeRegressionWith(ctx, in, e.diffOpts)
}

// AnalyzeRegressionWith is AnalyzeRegression with per-call options.
func (e *Engine) AnalyzeRegressionWith(ctx context.Context, in RegressionSources, opts DiffOptions) (*RegressionAnalysis, error) {
	ctx, release, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	var webs regression.Webs
	if webs.OrigCorrect, err = e.Views(ctx, in.OrigCorrect); err != nil {
		return nil, err
	}
	if webs.NewCorrect, err = e.Views(ctx, in.NewCorrect); err != nil {
		return nil, err
	}
	if webs.OrigRegr, err = e.Views(ctx, in.OrigRegr); err != nil {
		return nil, err
	}
	if webs.NewRegr, err = e.Views(ctx, in.NewRegr); err != nil {
		return nil, err
	}
	// The three differencing passes inside the analysis share one width,
	// resolved once here.
	opts.Parallelism = e.intraWorkers(opts.Parallelism)
	return regression.AnalyzeWebsCtx(ctx, webs, in.Removal, opts)
}

// Infer infers the object protocol of a class from a source's
// target-object views.
func (e *Engine) Infer(ctx context.Context, src Source, class string) (*ProtocolModel, error) {
	ctx, release, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	w, err := e.Views(ctx, src)
	if err != nil {
		return nil, err
	}
	return protocol.Infer(w, class), nil
}

// Check verifies every object of the declared class follows the typestate
// property, returning all violations in trace order.
func (e *Engine) Check(ctx context.Context, src Source, decl ProtocolDecl) ([]ProtocolViolation, error) {
	ctx, release, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	w, err := e.Views(ctx, src)
	if err != nil {
		return nil, err
	}
	return protocol.CheckTrace(w, decl), nil
}

// Impact diffs two sources with the engine's default options and ranks
// the methods, classes, objects, and threads the behavioural
// differences touch.
func (e *Engine) Impact(ctx context.Context, left, right Source) (*ImpactSurface, error) {
	return e.ImpactWith(ctx, left, right, e.diffOpts)
}

// ImpactWith is Impact with per-call differencing options.
func (e *Engine) ImpactWith(ctx context.Context, left, right Source, opts DiffOptions) (*ImpactSurface, error) {
	res, err := e.DiffWith(ctx, left, right, opts)
	if err != nil {
		return nil, err
	}
	return impact.Compute(res), nil
}
