package rprism

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/diff"
	"repro/internal/protocol"
	"repro/internal/regression"
	"repro/internal/trace"
	"repro/internal/views"
)

// slowSyntheticPair builds two single-threaded traces with no entry in
// common: every divergence point fails quick-scan, fails exploration,
// and pays escalating correspondence scans — the adversarial workload
// for the differencing semantics, and exactly the "runaway request"
// cancellation exists to kill.
func slowSyntheticPair(n int) (*Trace, *Trace) {
	mk := func(side string) *Trace {
		tr := trace.New(side)
		for i := 0; i < n; i++ {
			m := fmt.Sprintf("%s.m%d/0", side, i)
			tr.Append(1, m, trace.Repr{}, trace.Event{Kind: trace.KindCall, Member: m})
		}
		return tr
	}
	return mk("CancelL"), mk("CancelR")
}

// TestDiffCancellation aborts a large synthetic diff via its context and
// requires a prompt context.Canceled return with no goroutines left
// behind. Run under -race in CI.
func TestDiffCancellation(t *testing.T) {
	l, r := slowSyntheticPair(6000)
	eng := NewEngine()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	type out struct {
		res *DiffResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := eng.Diff(ctx, FromTrace(l), FromTrace(r))
		done <- out{res, err}
	}()
	// Give the diff a moment to get deep into its scan loops, then pull
	// the plug and clock the unwind.
	time.Sleep(50 * time.Millisecond)
	canceledAt := time.Now()
	cancel()

	select {
	case o := <-done:
		elapsed := time.Since(canceledAt)
		if !errors.Is(o.err, context.Canceled) {
			t.Fatalf("aborted diff returned err=%v, want context.Canceled", o.err)
		}
		if o.res != nil {
			t.Error("aborted diff returned a non-nil result")
		}
		// "Promptly": the unwind crosses a few poll intervals, not the
		// rest of a multi-second evaluation. Generous bound for -race.
		if elapsed > 2*time.Second {
			t.Errorf("cancellation took %v, want well under 2s", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled diff never returned")
	}

	// No goroutine may outlive the aborted analysis.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked by aborted diff: %d before, %d after", before, g)
	}
}

// TestCancellationReachesEveryAnalysis drives each cancellable engine
// entry point with an already-dead context.
func TestCancellationReachesEveryAnalysis(t *testing.T) {
	l, r := slowSyntheticPair(64)
	eng := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := eng.Diff(ctx, FromTrace(l), FromTrace(r)); !errors.Is(err, context.Canceled) {
		t.Errorf("Diff: %v", err)
	}
	if _, err := eng.DiffLCS(ctx, FromTrace(l), FromTrace(r), LCSOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("DiffLCS: %v", err)
	}
	if _, err := eng.AnalyzeRegression(ctx, RegressionSources{
		OrigCorrect: FromTrace(l), NewCorrect: FromTrace(l),
		OrigRegr: FromTrace(l), NewRegr: FromTrace(r),
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("AnalyzeRegression: %v", err)
	}
	if _, err := eng.Infer(ctx, FromTrace(l), "CancelL"); !errors.Is(err, context.Canceled) {
		t.Errorf("Infer: %v", err)
	}
	if _, err := eng.Impact(ctx, FromTrace(l), FromTrace(r)); !errors.Is(err, context.Canceled) {
		t.Errorf("Impact: %v", err)
	}
}

func compileAndRun(t *testing.T, src string) *RunResult {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEngineMatchesLegacyPipeline checks the Engine path returns exactly
// what the internal packages, called directly without the engine's
// caches and worker budget, return on the same traces.
func TestEngineMatchesLegacyPipeline(t *testing.T) {
	v2 := strings.Replace(v1, "c.bump(2);", "c.bump(3);", 1)
	r1 := compileAndRun(t, v1)
	r2 := compileAndRun(t, v2)

	eng := NewEngine()
	ctx := context.Background()

	want := diff.ViewDiff(r1.Trace, r2.Trace, diff.ViewOptions{})
	got, err := eng.Diff(ctx, FromTrace(r1.Trace), FromTrace(r2.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDiffs() != want.NumDiffs() || len(got.Sequences) != len(want.Sequences) {
		t.Errorf("engine diff %d/%d, legacy %d/%d",
			got.NumDiffs(), len(got.Sequences), want.NumDiffs(), len(want.Sequences))
	}

	wantAn, err := regression.Analyze(regression.Input{
		OrigCorrect: r1.Trace, NewCorrect: r1.Trace,
		OrigRegr: r1.Trace, NewRegr: r2.Trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	gotAn, err := eng.AnalyzeRegression(ctx, RegressionSources{
		OrigCorrect: FromTrace(r1.Trace), NewCorrect: FromTrace(r1.Trace),
		OrigRegr: FromTrace(r1.Trace), NewRegr: FromTrace(r2.Trace),
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotAn.Sizes != wantAn.Sizes || len(gotAn.D) != len(wantAn.D) {
		t.Errorf("engine regression %+v/%d, legacy %+v/%d",
			gotAn.Sizes, len(gotAn.D), wantAn.Sizes, len(wantAn.D))
	}

	wantModel := protocol.Infer(views.Build(r1.Trace), "Counter")
	gotModel, err := eng.Infer(ctx, FromTrace(r1.Trace), "Counter")
	if err != nil {
		t.Fatal(err)
	}
	if gotModel.Objects != wantModel.Objects {
		t.Errorf("engine protocol objects=%d, legacy %d", gotModel.Objects, wantModel.Objects)
	}
}

// TestEngineWebCache checks FromTrace sources share one web build per
// trace across analyses.
func TestEngineWebCache(t *testing.T) {
	res := compileAndRun(t, v1)
	eng := NewEngine()
	ctx := context.Background()

	w1, err := eng.Views(ctx, FromTrace(res.Trace))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := eng.Views(ctx, FromTrace(res.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Error("two sources over one trace resolved to distinct webs")
	}
}

// TestEngineSources exercises every Source constructor end to end.
func TestEngineSources(t *testing.T) {
	res := compileAndRun(t, v1)
	ctx := context.Background()

	t.Run("FromFile", func(t *testing.T) {
		eng := NewEngine()
		path := t.TempDir() + "/t.trace"
		if err := SaveTrace(res.Trace, path); err != nil {
			t.Fatal(err)
		}
		w, err := eng.Views(ctx, FromFile(path))
		if err != nil {
			t.Fatal(err)
		}
		if w.Trace.Len() != res.Trace.Len() {
			t.Errorf("file source: %d entries, want %d", w.Trace.Len(), res.Trace.Len())
		}
		if _, err := eng.Views(ctx, FromFile(path+".missing")); err == nil {
			t.Error("missing file resolved")
		}
	})

	t.Run("FromRun", func(t *testing.T) {
		eng := NewEngine()
		p, err := Compile(v1)
		if err != nil {
			t.Fatal(err)
		}
		src := FromRun(p, RunOptions{})
		w, err := eng.Views(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		if w.Count().Total == 0 {
			t.Error("run source built no views")
		}
		// Memoized: the second resolution must not re-run the program.
		w2, err := eng.Views(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		if w != w2 {
			t.Error("run source re-resolved to a different web")
		}
	})

	t.Run("FromCorpus", func(t *testing.T) {
		store, err := corpus.New(t.TempDir(), corpus.Options{})
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := store.Put(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(WithCorpus(store))
		w, err := eng.Views(ctx, FromCorpus(id))
		if err != nil {
			t.Fatal(err)
		}
		if w.Trace.Len() != res.Trace.Len() {
			t.Errorf("corpus source: %d entries, want %d", w.Trace.Len(), res.Trace.Len())
		}
		if _, err := eng.Views(ctx, FromCorpusID("zzzz")); !errors.Is(err, ErrBadRequest) {
			t.Errorf("bad digest string: %v", err)
		}
		// An engine without a corpus must reject corpus sources clearly.
		if _, err := NewEngine().Views(ctx, FromCorpus(id)); err == nil ||
			!strings.Contains(err.Error(), "WithCorpus") {
			t.Errorf("corpus-less engine: %v", err)
		}
	})
}

// TestRegistry covers registration, discovery, and dispatch — including
// a user-registered analysis living alongside the built-ins.
func TestRegistry(t *testing.T) {
	names := make(map[string]bool)
	for _, a := range Analyses() {
		names[a.Name] = true
	}
	for _, want := range []string{"diff", "regression", "protocol", "typestate", "impact"} {
		if !names[want] {
			t.Errorf("built-in analysis %q not registered", want)
		}
	}
	if len(names) < 5 {
		t.Fatalf("only %d analyses registered", len(names))
	}

	res := compileAndRun(t, v1)
	eng := NewEngine()
	ctx := context.Background()

	Register("test-entry-count", func(ctx context.Context, e *Engine, req AnalysisRequest) (any, error) {
		src, err := req.Source("trace")
		if err != nil {
			return nil, err
		}
		w, err := e.Views(ctx, src)
		if err != nil {
			return nil, err
		}
		return w.Trace.Len(), nil
	})

	out, err := eng.RunAnalysis(ctx, "test-entry-count", AnalysisRequest{
		Sources: map[string]Source{"trace": FromTrace(res.Trace)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.(int) != res.Trace.Len() {
		t.Errorf("custom analysis returned %v, want %d", out, res.Trace.Len())
	}

	if _, err := eng.RunAnalysis(ctx, "no-such-analysis", AnalysisRequest{}); err == nil {
		t.Error("unknown analysis dispatched")
	}
	if _, err := eng.RunAnalysis(ctx, "diff", AnalysisRequest{
		Sources: map[string]Source{"left": FromTrace(res.Trace)},
	}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("missing role: %v", err)
	}
	if _, err := eng.RunAnalysis(ctx, "protocol", AnalysisRequest{
		Sources: map[string]Source{"trace": FromTrace(res.Trace)},
		Params:  json.RawMessage(`{"window": "not a number"`),
	}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("bad params: %v", err)
	}
}

// TestRegistryDiffHonorsParams checks wire params reach the differ.
func TestRegistryDiffHonorsParams(t *testing.T) {
	v2 := strings.Replace(v1, "c.bump(2);", "c.bump(3);", 1)
	r1 := compileAndRun(t, v1)
	r2 := compileAndRun(t, v2)
	eng := NewEngine()
	ctx := context.Background()

	want := diff.ViewDiff(r1.Trace, r2.Trace, diff.ViewOptions{Window: 5, Radius: 2})
	out, err := eng.RunAnalysis(ctx, "diff", AnalysisRequest{
		Sources: map[string]Source{"left": FromTrace(r1.Trace), "right": FromTrace(r2.Trace)},
		Params:  json.RawMessage(`{"window": 5, "radius": 2}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*DiffResult)
	if got.NumDiffs() != want.NumDiffs() {
		t.Errorf("params ignored: %d diffs, want %d", got.NumDiffs(), want.NumDiffs())
	}
}

// TestEngineWorkerBudget checks a saturated engine blocks until a slot
// frees, honors ctx while queued, and lets one analysis's nested engine
// calls reenter its own slot instead of deadlocking.
func TestEngineWorkerBudget(t *testing.T) {
	res := compileAndRun(t, v1)
	eng := NewEngine(WithWorkers(1))
	ctx := context.Background()

	// Occupy the only slot.
	_, release, err := eng.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	shortCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := eng.Diff(shortCtx, FromTrace(res.Trace), FromTrace(res.Trace)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("queued past a dead context: %v", err)
	}
	release()
	if _, err := eng.Diff(ctx, FromTrace(res.Trace), FromTrace(res.Trace)); err != nil {
		t.Errorf("freed slot still blocked: %v", err)
	}

	// Reentrancy: a registered analysis running under RunAnalysis's slot
	// may drive every engine method without claiming a second slot —
	// with Workers(1), any double-acquire here would deadlock.
	Register("test-budget-reentrant", func(ctx context.Context, e *Engine, req AnalysisRequest) (any, error) {
		src, err := req.Source("trace")
		if err != nil {
			return nil, err
		}
		if _, err := e.Views(ctx, src); err != nil {
			return nil, err
		}
		return e.Diff(ctx, src, src)
	})
	reentrantCtx, cancel2 := context.WithTimeout(ctx, 10*time.Second)
	defer cancel2()
	if _, err := eng.RunAnalysis(reentrantCtx, "test-budget-reentrant", AnalysisRequest{
		Sources: map[string]Source{"trace": FromTrace(res.Trace)},
	}); err != nil {
		t.Errorf("nested engine calls deadlocked or failed under Workers(1): %v", err)
	}
}

// TestIntraDiffWorkersClampedToSlotBudget pins the oversubscription
// contract of WithDiffParallelism: intra-diff workers beyond the
// analysis's own slot are granted only from free WithWorkers slots, and
// are returned afterwards.
func TestIntraDiffWorkersClampedToSlotBudget(t *testing.T) {
	eng := NewEngine(WithWorkers(3), WithDiffParallelism(8))

	// An analysis holding one slot asks for the engine default (8): two
	// slots are free, so it gets 1 + 2 workers and the budget is full.
	_, release, err := eng.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	par, releasePar := eng.intraWorkers(0)
	if par != 3 {
		t.Errorf("intraWorkers(0) granted %d with 2 free slots, want 3", par)
	}
	if len(eng.workers) != 3 {
		t.Errorf("budget shows %d/3 slots used during the diff, want 3", len(eng.workers))
	}
	releasePar()
	if len(eng.workers) != 1 {
		t.Errorf("budget shows %d/3 slots used after release, want the analysis's own 1", len(eng.workers))
	}
	release()

	// A per-call request below the free budget is honored exactly.
	par, releasePar = eng.intraWorkers(2)
	if par != 2 {
		t.Errorf("intraWorkers(2) = %d, want 2", par)
	}
	releasePar()
	if len(eng.workers) != 0 {
		t.Errorf("slots leaked: %d still held", len(eng.workers))
	}

	// Without a worker budget the request passes through unclamped, and
	// an unset engine defaults to GOMAXPROCS.
	unbounded := NewEngine(WithDiffParallelism(5))
	if par, rel := unbounded.intraWorkers(0); par != 5 {
		t.Errorf("unbounded engine granted %d, want the configured 5", par)
	} else {
		rel()
	}
	plain := NewEngine()
	if par, rel := plain.intraWorkers(0); par != runtime.GOMAXPROCS(0) {
		t.Errorf("default parallelism = %d, want GOMAXPROCS (%d)", par, runtime.GOMAXPROCS(0))
	} else {
		rel()
	}
}

// TestEngineDiffParallelismEquivalence drives the same diff through the
// engine at serial and forced-parallel settings: the results must be
// identical — the engine knob changes scheduling, never output.
func TestEngineDiffParallelismEquivalence(t *testing.T) {
	v2 := strings.Replace(v1, "c.bump(2);", "c.bump(3);", 1)
	res1 := compileAndRun(t, v1)
	res2 := compileAndRun(t, v2)
	eng := NewEngine()
	ctx := context.Background()

	opts := eng.DefaultDiffOptions()
	opts.Parallelism = 1
	serial, err := eng.DiffWith(ctx, FromTrace(res1.Trace), FromTrace(res2.Trace), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 4
	parallel, err := eng.DiffWith(ctx, FromTrace(res1.Trace), FromTrace(res2.Trace), opts)
	if err != nil {
		t.Fatal(err)
	}
	if serial.NumDiffs() != parallel.NumDiffs() ||
		len(serial.Sequences) != len(parallel.Sequences) ||
		serial.Stats != parallel.Stats {
		t.Errorf("parallel engine diff diverged: serial %d diffs %+v, parallel %d diffs %+v",
			serial.NumDiffs(), serial.Stats, parallel.NumDiffs(), parallel.Stats)
	}
}
