package rprism

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/views"
)

// Digest is the content address of a trace in a corpus store.
type Digest = trace.Digest

// ParseDigest parses the hex form of a trace digest.
func ParseDigest(s string) (Digest, error) { return trace.ParseDigest(s) }

// A Source names a trace for the Engine without saying how to get it: an
// in-memory trace, a pre-built web, a file on disk, a corpus digest, or a
// program yet to be run. Sources resolve lazily — inside the analysis
// call, under its context — and exactly once per Source value: the
// loaded trace and its built view web are memoized (file reads and
// program runs per Source, webs in the engine or corpus cache), so
// passing one Source to many analyses pays for resolution a single time.
//
// The interface is sealed; construct sources with FromTrace, FromWeb,
// FromFile, FromCorpus, FromCorpusID, FromRun, or FromSession (the one
// deliberate exception to once-only resolution: live sessions resolve
// to a fresh snapshot per analysis).
type Source interface {
	// resolve materializes the source's view web on e, honoring ctx.
	resolve(ctx context.Context, e *Engine) (*views.Web, error)
	// resolveTrace materializes only the raw trace — for analyses (the
	// LCS baseline) that never need a web, so none is built or cached.
	resolveTrace(ctx context.Context, e *Engine) (*trace.Trace, error)
}

// FromTrace sources an in-memory trace. The engine caches the built web,
// keyed by trace identity, so repeated analyses over the same trace skip
// web construction; concurrent analyses of one trace share one build
// (single-flight), which the first of them runs under its context.
func FromTrace(t *Trace) Source { return &traceSource{t: t} }

type traceSource struct{ t *Trace }

func (s *traceSource) resolve(ctx context.Context, e *Engine) (*views.Web, error) {
	if s.t == nil {
		return nil, fmt.Errorf("rprism: FromTrace(nil)")
	}
	return e.cachedWeb(ctx, s.t)
}

func (s *traceSource) resolveTrace(ctx context.Context, e *Engine) (*trace.Trace, error) {
	if s.t == nil {
		return nil, fmt.Errorf("rprism: FromTrace(nil)")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.t, nil
}

// FromWeb sources an already-built view web, for callers that manage
// their own web lifecycle.
func FromWeb(w *Web) Source { return &webSource{w: w} }

type webSource struct{ w *views.Web }

func (s *webSource) resolve(ctx context.Context, e *Engine) (*views.Web, error) {
	if s.w == nil {
		return nil, fmt.Errorf("rprism: FromWeb(nil)")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.w, nil
}

func (s *webSource) resolveTrace(ctx context.Context, e *Engine) (*trace.Trace, error) {
	if s.w == nil {
		return nil, fmt.Errorf("rprism: FromWeb(nil)")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.w.Trace, nil
}

// FromFile sources a trace file written by SaveTrace (or `rprism trace`).
// The file is read on first resolution and memoized in the Source.
func FromFile(path string) Source { return &fileSource{path: path} }

type fileSource struct {
	path string
	once sync.Once
	t    *trace.Trace
	err  error
}

func (s *fileSource) resolve(ctx context.Context, e *Engine) (*views.Web, error) {
	t, err := s.resolveTrace(ctx, e)
	if err != nil {
		return nil, err
	}
	return e.cachedWeb(ctx, t)
}

func (s *fileSource) resolveTrace(ctx context.Context, e *Engine) (*trace.Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.once.Do(func() { s.t, s.err = trace.Load(s.path) })
	if s.err != nil {
		return nil, fmt.Errorf("rprism: source %q: %w", s.path, s.err)
	}
	return s.t, nil
}

// FromCorpus sources a stored trace by digest. It requires an engine
// constructed WithCorpus; the web comes out of the store's single-flight
// cache, so concurrent analyses of one trace share a single build.
func FromCorpus(id Digest) Source { return &corpusSource{id: id} }

// FromCorpusID is FromCorpus for a hex digest string (parsed at
// resolution time, so construction cannot fail). A git-style short
// prefix (≥ 4 hex chars) resolves to the unique stored digest that
// begins with it.
func FromCorpusID(id string) Source { return &corpusSource{raw: id, parse: true} }

type corpusSource struct {
	id    Digest
	raw   string
	parse bool
}

func (s *corpusSource) digest(e *Engine) (Digest, error) {
	if e.store == nil {
		return Digest{}, fmt.Errorf("rprism: FromCorpus on an engine without a corpus (construct it WithCorpus)")
	}
	if !s.parse {
		return s.id, nil
	}
	id, err := trace.ParseDigest(s.raw)
	if err != nil {
		// Not a full digest — try it as a short prefix against the store.
		if rid, rerr := e.store.ResolvePrefix(s.raw); rerr == nil {
			return rid, nil
		} else if errors.Is(rerr, corpus.ErrNotFound) {
			return Digest{}, rerr
		}
		return Digest{}, fmt.Errorf("%w: corpus source: %v", ErrBadRequest, err)
	}
	return id, nil
}

func (s *corpusSource) resolve(ctx context.Context, e *Engine) (*views.Web, error) {
	id, err := s.digest(e)
	if err != nil {
		return nil, err
	}
	return e.store.ViewsCtx(ctx, id)
}

func (s *corpusSource) resolveTrace(ctx context.Context, e *Engine) (*trace.Trace, error) {
	id, err := s.digest(e)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.store.Get(id)
}

// FromSession sources a live, append-open capture session. Unlike every
// other source it is deliberately NOT memoized: each resolution takes a
// fresh point-in-time snapshot of the still-growing session (trace and
// query-ready web), so an analysis sees the program as of the moment it
// started while the session keeps streaming underneath it. Snapshots
// are immutable and share storage with the session, making resolution
// O(views + objects), not O(entries).
func FromSession(s *corpus.Session) Source { return &sessionSource{s: s} }

type sessionSource struct{ s *corpus.Session }

func (s *sessionSource) resolve(ctx context.Context, e *Engine) (*views.Web, error) {
	if s.s == nil {
		return nil, fmt.Errorf("rprism: FromSession(nil)")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.s.Web(), nil
}

func (s *sessionSource) resolveTrace(ctx context.Context, e *Engine) (*trace.Trace, error) {
	if s.s == nil {
		return nil, fmt.Errorf("rprism: FromSession(nil)")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.s.Snapshot(), nil
}

// FromRun sources the trace of executing a compiled program under the
// tracing interpreter. The run happens on first resolution and is
// memoized in the Source; a program error that still yielded a trace
// (Sys.abort) resolves to the partial trace, matching Run's semantics.
func FromRun(p *Program, opts RunOptions) Source { return &runSource{p: p, opts: opts} }

type runSource struct {
	p    *Program
	opts RunOptions
	once sync.Once
	t    *trace.Trace
	err  error
}

func (s *runSource) resolve(ctx context.Context, e *Engine) (*views.Web, error) {
	t, err := s.resolveTrace(ctx, e)
	if err != nil {
		return nil, err
	}
	return e.cachedWeb(ctx, t)
}

func (s *runSource) resolveTrace(ctx context.Context, e *Engine) (*trace.Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.once.Do(func() {
		res, err := interp.Run(s.p, s.opts)
		if err != nil {
			s.err = err
			return
		}
		if res.Err != nil && res.Trace == nil {
			s.err = fmt.Errorf("rprism: run source: %s", res.Err.Msg)
			return
		}
		s.t = res.Trace
	})
	if s.err != nil {
		return nil, s.err
	}
	return s.t, nil
}
