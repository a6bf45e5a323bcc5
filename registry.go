package rprism

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrBadRequest marks analysis failures caused by the request itself —
// a missing source role, malformed params — rather than by the engine
// or its data. Servers map it to a 400-class response with errors.Is.
var ErrBadRequest = errors.New("bad analysis request")

// The analysis registry is the extension point the paper's §4 promises:
// one trace abstraction (views) carrying a whole family of dynamic
// analyses. Built-in analyses self-register here under stable names, the
// server's generic POST /run/{analysis} endpoint dispatches through it,
// and embedders add their own analyses with Register — no server or CLI
// change required to expose a new one.

// AnalysisRequest is the uniform invocation payload of a registered
// analysis: named trace sources plus analysis-specific parameters as raw
// JSON (nil means defaults). Each analysis documents its roles and
// parameters in its AnalysisInfo.
type AnalysisRequest struct {
	// Sources maps role names (e.g. "left", "right", "trace",
	// "orig_correct") to the traces the analysis consumes.
	Sources map[string]Source
	// Params carries analysis-specific tunables; JSON so the request can
	// cross the wire unchanged.
	Params json.RawMessage
}

// Source returns the source bound to a role, or a descriptive error.
func (r AnalysisRequest) Source(role string) (Source, error) {
	s, ok := r.Sources[role]
	if !ok || s == nil {
		return nil, fmt.Errorf("%w: missing the %q trace", ErrBadRequest, role)
	}
	return s, nil
}

// AnalysisFunc runs one analysis on an engine. The returned value is the
// analysis's native result (e.g. *DiffResult); generic callers that need
// a wire form marshal or render it themselves.
type AnalysisFunc func(ctx context.Context, e *Engine, req AnalysisRequest) (any, error)

// AnalysisInfo describes a registered analysis for discovery
// (GET /analyses, CLI listings).
type AnalysisInfo struct {
	Name string `json:"name"`
	Doc  string `json:"doc,omitempty"`
	// Roles are the source role names the analysis requires.
	Roles []string `json:"roles,omitempty"`
	// Params documents the accepted Params fields, informally.
	Params string `json:"params,omitempty"`
}

var registry = struct {
	sync.RWMutex
	fns   map[string]AnalysisFunc
	infos map[string]AnalysisInfo
}{
	fns:   make(map[string]AnalysisFunc),
	infos: make(map[string]AnalysisInfo),
}

// Register adds an analysis under a name, replacing any previous
// registration. Metadata-carrying registrations use RegisterAnalysis;
// Register is the shorthand for a bare function.
func Register(name string, fn AnalysisFunc) {
	RegisterAnalysis(AnalysisInfo{Name: name}, fn)
}

// RegisterAnalysis adds an analysis with discovery metadata. It panics on
// an empty name or nil function — registration happens at init time,
// where misconfiguration should fail loudly.
func RegisterAnalysis(info AnalysisInfo, fn AnalysisFunc) {
	if info.Name == "" || fn == nil {
		panic("rprism: RegisterAnalysis needs a name and a function")
	}
	registry.Lock()
	defer registry.Unlock()
	registry.fns[info.Name] = fn
	registry.infos[info.Name] = info
}

// Analyses lists every registered analysis, sorted by name.
func Analyses() []AnalysisInfo {
	registry.RLock()
	out := make([]AnalysisInfo, 0, len(registry.infos))
	for _, info := range registry.infos {
		out = append(out, info)
	}
	registry.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupAnalysis returns the registered function for a name.
func LookupAnalysis(name string) (AnalysisFunc, bool) {
	registry.RLock()
	defer registry.RUnlock()
	fn, ok := registry.fns[name]
	return fn, ok
}

// RunAnalysis dispatches a registered analysis by name — the engine-side
// half of the server's generic /run/{analysis} endpoint. The whole
// dispatch claims one worker-budget slot; engine methods the analysis
// calls reenter that slot instead of claiming more, so a registered
// analysis counts as exactly one unit of concurrency however much
// engine machinery it drives.
func (e *Engine) RunAnalysis(ctx context.Context, name string, req AnalysisRequest) (any, error) {
	fn, ok := LookupAnalysis(name)
	if !ok {
		return nil, fmt.Errorf("rprism: unknown analysis %q (GET /analyses or rprism.Analyses() lists the registered ones)", name)
	}
	ctx, release, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return fn(ctx, e, req)
}

// ---- built-in analyses ----

// diffParams are the wire tunables of the diff-flavored analyses;
// unset fields fall back to the engine's defaults.
type diffParams struct {
	Window     *int  `json:"window"`
	Radius     *int  `json:"radius"`
	MaxScan    *int  `json:"max_scan"`
	QuickScan  *int  `json:"quick_scan"`
	MaxExplore *int  `json:"max_explore"`
	Relaxed    *bool `json:"relaxed"`
	// Parallelism requests intra-diff workers for this call; the engine
	// caps it at 1 + the worker slots free when the diff starts, so a
	// request can ask for more than the deployment will grant. Results
	// are identical either way.
	Parallelism *int  `json:"parallelism"`
	Removal     *bool `json:"removal"` // regression only
}

// maxWindow caps the ω a request may ask for: a window of 2·1024+1
// entries already costs about 4.2M compares and 1 MB of LCS scratch per
// worker, and the evaluation's largest ω is 40.
const maxWindow = 1024

// validate rejects tunables the differ cannot run with: negative values
// (a negative ω inverts the window bounds) and windows past maxWindow.
func (p diffParams) validate() error {
	for _, f := range []struct {
		name string
		v    *int
	}{
		{"window", p.Window}, {"radius", p.Radius}, {"max_scan", p.MaxScan},
		{"quick_scan", p.QuickScan}, {"max_explore", p.MaxExplore},
		{"parallelism", p.Parallelism},
	} {
		if f.v != nil && *f.v < 0 {
			return fmt.Errorf("%w: %s must not be negative (got %d)", ErrBadRequest, f.name, *f.v)
		}
	}
	if p.Window != nil && *p.Window > maxWindow {
		return fmt.Errorf("%w: window must be at most %d (got %d)", ErrBadRequest, maxWindow, *p.Window)
	}
	return nil
}

func (p diffParams) apply(o DiffOptions) DiffOptions {
	if p.Parallelism != nil {
		o.Parallelism = *p.Parallelism
	}
	if p.Window != nil {
		o.Window = *p.Window
	}
	if p.Radius != nil {
		o.Radius = *p.Radius
	}
	if p.MaxScan != nil {
		o.MaxScan = *p.MaxScan
	}
	if p.QuickScan != nil {
		o.QuickScan = *p.QuickScan
	}
	if p.MaxExplore != nil {
		o.MaxExplore = *p.MaxExplore
	}
	if p.Relaxed != nil {
		o.Relaxed = *p.Relaxed
	}
	return o
}

func decodeParams[T any](raw json.RawMessage) (T, error) {
	var p T
	if len(raw) == 0 {
		return p, nil
	}
	if err := json.Unmarshal(raw, &p); err != nil {
		return p, fmt.Errorf("%w: bad params: %v", ErrBadRequest, err)
	}
	if v, ok := any(p).(interface{ validate() error }); ok {
		if err := v.validate(); err != nil {
			return p, err
		}
	}
	return p, nil
}

func init() {
	RegisterAnalysis(AnalysisInfo{
		Name:   "diff",
		Doc:    "views-based trace differencing (Fig. 12): similarity sets, difference sets, difference sequences",
		Roles:  []string{"left", "right"},
		Params: "window, radius, max_scan, quick_scan, max_explore, relaxed, parallelism",
	}, func(ctx context.Context, e *Engine, req AnalysisRequest) (any, error) {
		left, err := req.Source("left")
		if err != nil {
			return nil, err
		}
		right, err := req.Source("right")
		if err != nil {
			return nil, err
		}
		p, err := decodeParams[diffParams](req.Params)
		if err != nil {
			return nil, err
		}
		return e.DiffWith(ctx, left, right, p.apply(e.DefaultDiffOptions()))
	})

	RegisterAnalysis(AnalysisInfo{
		Name:   "regression",
		Doc:    "§4.1 regression-cause analysis: D = (A − B) ∩ C over the four-trace protocol",
		Roles:  []string{"orig_correct", "new_correct", "orig_regr", "new_regr"},
		Params: "removal, plus the diff tunables",
	}, func(ctx context.Context, e *Engine, req AnalysisRequest) (any, error) {
		var in RegressionSources
		var err error
		if in.OrigCorrect, err = req.Source("orig_correct"); err != nil {
			return nil, err
		}
		if in.NewCorrect, err = req.Source("new_correct"); err != nil {
			return nil, err
		}
		if in.OrigRegr, err = req.Source("orig_regr"); err != nil {
			return nil, err
		}
		if in.NewRegr, err = req.Source("new_regr"); err != nil {
			return nil, err
		}
		p, err := decodeParams[diffParams](req.Params)
		if err != nil {
			return nil, err
		}
		if p.Removal != nil {
			in.Removal = *p.Removal
		}
		return e.AnalyzeRegressionWith(ctx, in, p.apply(e.DefaultDiffOptions()))
	})

	RegisterAnalysis(AnalysisInfo{
		Name:   "protocol",
		Doc:    "object protocol inference (§4): observed method-order transitions of a class",
		Roles:  []string{"trace"},
		Params: `class (required)`,
	}, func(ctx context.Context, e *Engine, req AnalysisRequest) (any, error) {
		src, err := req.Source("trace")
		if err != nil {
			return nil, err
		}
		p, err := decodeParams[struct {
			Class string `json:"class"`
		}](req.Params)
		if err != nil {
			return nil, err
		}
		if p.Class == "" {
			return nil, fmt.Errorf(`%w: protocol analysis needs params {"class": "..."}`, ErrBadRequest)
		}
		return e.Infer(ctx, src, p.Class)
	})

	RegisterAnalysis(AnalysisInfo{
		Name:   "typestate",
		Doc:    "typestate property checking (§4): verify objects follow a declared protocol",
		Roles:  []string{"trace"},
		Params: `class (required), allowed: {state: [methods...]}`,
	}, func(ctx context.Context, e *Engine, req AnalysisRequest) (any, error) {
		src, err := req.Source("trace")
		if err != nil {
			return nil, err
		}
		decl, err := decodeParams[ProtocolDecl](req.Params)
		if err != nil {
			return nil, err
		}
		if decl.Class == "" {
			return nil, fmt.Errorf(`%w: typestate analysis needs params {"class": "...", "allowed": {...}}`, ErrBadRequest)
		}
		violations, err := e.Check(ctx, src, decl)
		if err != nil {
			return nil, err
		}
		if violations == nil {
			violations = []ProtocolViolation{}
		}
		return violations, nil
	})

	RegisterAnalysis(AnalysisInfo{
		Name:   "impact",
		Doc:    "impact analysis (§4): methods, classes, objects, and threads the behavioural differences touch",
		Roles:  []string{"left", "right"},
		Params: "the diff tunables",
	}, func(ctx context.Context, e *Engine, req AnalysisRequest) (any, error) {
		left, err := req.Source("left")
		if err != nil {
			return nil, err
		}
		right, err := req.Source("right")
		if err != nil {
			return nil, err
		}
		p, err := decodeParams[diffParams](req.Params)
		if err != nil {
			return nil, err
		}
		return e.ImpactWith(ctx, left, right, p.apply(e.DefaultDiffOptions()))
	})
}
