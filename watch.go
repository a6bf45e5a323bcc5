package rprism

import (
	"context"
	"fmt"

	"repro/internal/regression"
	"repro/internal/sentinel"
	"repro/internal/trace"
)

// The always-on regression sentinel, engine-side: Engine.WatchSession
// pins a stored baseline against a live corpus session and hands the
// pair to the sentinel monitor, which re-diffs the session
// incrementally on every appended segment and raises a DivergenceEvent
// on the first non-empty candidate set. Aliases re-export the sentinel
// vocabulary at the API surface.

// SentinelOptions configure the engine's watch monitor (debounce,
// worker-budget gate, webhook client and retry policy).
type SentinelOptions = sentinel.Options

// Watch is one attached session monitor.
type Watch = sentinel.Watch

// WatchInfo summarizes a watch.
type WatchInfo = sentinel.Info

// WatchEvent is a structured watch notification (divergence or terminal
// watch-closed).
type WatchEvent = sentinel.Event

// WithSentinelOptions configures the monitor Engine.Sentinel constructs
// on first use. Note the engine always injects its own worker-budget
// gate when WithWorkers is set and no Acquire is given: watch
// evaluations then queue behind (and count against) the same slot pool
// as interactive analyses.
func WithSentinelOptions(o SentinelOptions) EngineOption {
	return func(e *Engine) { e.sentinelOpts = o }
}

// Sentinel returns the engine's watch monitor, creating it on first
// use. The monitor is shut down by Engine.Close.
func (e *Engine) Sentinel() *sentinel.Monitor {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sentinel == nil {
		opts := e.sentinelOpts
		if opts.Acquire == nil && e.workers != nil {
			opts.Acquire = func(ctx context.Context) (func(), error) {
				_, release, err := e.acquire(ctx)
				return release, err
			}
		}
		e.sentinel = sentinel.New(opts)
	}
	return e.sentinel
}

// Close shuts the engine's background machinery down: every watch is
// detached (emitting its terminal event) and pending webhook deliveries
// drain. Analyses in flight are unaffected; an engine without watches
// needs no Close.
func (e *Engine) Close() {
	e.mu.Lock()
	m := e.sentinel
	e.mu.Unlock()
	if m != nil {
		m.Close()
	}
}

// WatchConfig configures Engine.WatchSession.
type WatchConfig struct {
	// Baseline is the pinned baseline's corpus digest (hex). Required.
	Baseline string
	// Webhook, when set, receives divergence events as JSON POSTs with
	// at-least-once retry.
	Webhook string
	// ExpectedOld/ExpectedNew are optional corpus digests of an
	// expected-change trace pair: their diff's right-side signatures (B
	// in the paper's D = (A − B) ∩ C) are subtracted from the watch's
	// candidate set, so an intended change does not alarm. Both or
	// neither must be set.
	ExpectedOld string
	ExpectedNew string
	// DiffOpts are the watch's differencing options. The zero value
	// means the engine defaults; any other value replaces them whole, so
	// a caller overriding one field starts from Engine.DefaultDiffOptions.
	DiffOpts DiffOptions
}

// WatchSession attaches a sentinel watch to an open corpus session: the
// session is re-diffed against the pinned baseline on every appended
// segment (incrementally — only thread pairs that grew are recomputed)
// and the first non-empty candidate set emits a divergence event to the
// watch's SSE subscribers and webhook. The watch detaches when the
// session closes or aborts, when Monitor.Detach is called, or at
// Engine.Close.
func (e *Engine) WatchSession(ctx context.Context, sessionID string, cfg WatchConfig) (*Watch, error) {
	if e.store == nil {
		return nil, fmt.Errorf("rprism: engine has no corpus; sessions require WithCorpus")
	}
	sess, err := e.store.Session(sessionID)
	if err != nil {
		return nil, err
	}
	dig, err := trace.ParseDigest(cfg.Baseline)
	if err != nil {
		return nil, fmt.Errorf("rprism: watch baseline: %w", err)
	}
	wl, err := e.store.ViewsCtx(ctx, dig)
	if err != nil {
		return nil, fmt.Errorf("rprism: watch baseline: %w", err)
	}
	opts := cfg.DiffOpts
	if opts == (DiffOptions{}) {
		opts = e.diffOpts
	}
	spec := sentinel.Spec{
		Session:        sess,
		Baseline:       wl,
		BaselineDigest: dig,
		Webhook:        cfg.Webhook,
		DiffOpts:       opts,
		Width:          e.intraWorkers,
	}
	if cfg.ExpectedOld != "" || cfg.ExpectedNew != "" {
		if cfg.ExpectedOld == "" || cfg.ExpectedNew == "" {
			return nil, fmt.Errorf("rprism: expected-change pair needs both old and new digests")
		}
		b, err := e.DiffWith(ctx, FromCorpusID(cfg.ExpectedOld), FromCorpusID(cfg.ExpectedNew), opts)
		if err != nil {
			return nil, fmt.Errorf("rprism: expected-change diff: %w", err)
		}
		spec.Expected = make(map[regression.Signature]bool, len(b.DiffRight))
		for _, eid := range b.DiffRight {
			spec.Expected[regression.EntrySignature(b.Right.Entries[eid])] = true
		}
	}
	return e.Sentinel().Attach(spec)
}
