package rprism

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/diff"
	"repro/internal/protocol"
	"repro/internal/regression"
	"repro/internal/subjects"
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

// slotProbeCtx calls probe on every Err poll, which the diff's units
// make while they run: it observes the worker budget mid-diff.
type slotProbeCtx struct {
	context.Context
	probe func()
}

func (c slotProbeCtx) Err() error {
	c.probe()
	return c.Context.Err()
}

// TestIntraDiffWorkersClampedToSlotBudget pins the width rule of
// WithDiffParallelism: a diff starts at most 1 + the WithWorkers slots
// free at that moment wide, and its inner workers claim no slot.
func TestIntraDiffWorkersClampedToSlotBudget(t *testing.T) {
	eng := NewEngine(WithWorkers(3), WithDiffParallelism(8))
	l := FromTrace(subjects.GenCorpusTrace(3, 0, 300))
	r := FromTrace(subjects.GenCorpusTrace(3, 1, 300))

	// An analysis holding one slot asks for the engine default (8): two
	// slots are free, so it runs 1 + 2 wide and the budget still shows
	// only the analysis's own slot, before, during and after the diff.
	var peak atomic.Int64
	probe := func() {
		if n := int64(len(eng.workers)); n > peak.Load() {
			peak.Store(n)
		}
	}
	ctx, release, err := eng.acquire(slotProbeCtx{context.Background(), probe})
	if err != nil {
		t.Fatal(err)
	}
	if par := eng.intraWorkers(0); par != 3 {
		t.Errorf("intraWorkers(0) = %d with 2 free slots, want 3", par)
	}
	if par := eng.intraWorkers(2); par != 2 {
		t.Errorf("intraWorkers(2) = %d with 2 free slots, want the request 2", par)
	}
	if len(eng.workers) != 1 {
		t.Errorf("budget shows %d/3 slots used before the diff, want the analysis's own 1", len(eng.workers))
	}
	if _, err := eng.Diff(ctx, l, r); err != nil {
		t.Fatal(err)
	}
	if n := peak.Load(); n != 1 {
		t.Errorf("budget peaked at %d/3 slots used during the diff, want 1", n)
	}
	if len(eng.workers) != 1 {
		t.Errorf("budget shows %d/3 slots used after the diff, want 1", len(eng.workers))
	}

	// A second slot held elsewhere leaves one free: width 2.
	_, release2, err := eng.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if par := eng.intraWorkers(0); par != 2 {
		t.Errorf("intraWorkers(0) = %d with 1 free slot, want 2", par)
	}
	release2()
	release()
	if len(eng.workers) != 0 {
		t.Errorf("slots leaked: %d still held", len(eng.workers))
	}

	// A request below the free budget is honored exactly.
	if par := eng.intraWorkers(2); par != 2 {
		t.Errorf("intraWorkers(2) = %d on an idle 3-slot engine, want the request 2", par)
	}

	// Without a worker budget the request passes through unchanged, and
	// an unset engine defaults to GOMAXPROCS.
	unbounded := NewEngine(WithDiffParallelism(5))
	if par := unbounded.intraWorkers(0); par != 5 {
		t.Errorf("unbounded engine granted %d, want the configured 5", par)
	}
	if par := unbounded.intraWorkers(64); par != 64 {
		t.Errorf("unbounded engine granted %d for a request of 64, want 64", par)
	}
	if par := NewEngine().intraWorkers(0); par != runtime.GOMAXPROCS(0) {
		t.Errorf("default parallelism = %d, want GOMAXPROCS (%d)", par, runtime.GOMAXPROCS(0))
	}
}

// TestEngineConcurrentAnalysesUnderBudget runs a diff and a regression
// analysis side by side on a two-slot engine at the default width, with
// cold web caches: both must match their serial results. Run under
// -race in CI.
func TestEngineConcurrentAnalysesUnderBudget(t *testing.T) {
	gen := func(v int) Source { return FromTrace(subjects.GenCorpusTrace(3, v, 400)) }
	oc, nc, or, nr := gen(0), gen(0), gen(1), gen(2)
	in := RegressionSources{OrigCorrect: oc, NewCorrect: nc, OrigRegr: or, NewRegr: nr}
	ctx := context.Background()

	serial := NewEngine(WithDiffParallelism(1))
	wantDiff, err := serial.Diff(ctx, or, nr)
	if err != nil {
		t.Fatal(err)
	}
	wantRegr, err := serial.AnalyzeRegression(ctx, in)
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine(WithWorkers(2))
	var (
		wg      sync.WaitGroup
		gotDiff *DiffResult
		gotRegr *RegressionAnalysis
		errs    [2]error
	)
	wg.Add(2)
	go func() { defer wg.Done(); gotDiff, errs[0] = eng.Diff(ctx, or, nr) }()
	go func() { defer wg.Done(); gotRegr, errs[1] = eng.AnalyzeRegression(ctx, in) }()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if gotDiff.Stats != wantDiff.Stats ||
		!reflect.DeepEqual(gotDiff.DiffLeft, wantDiff.DiffLeft) ||
		!reflect.DeepEqual(gotDiff.DiffRight, wantDiff.DiffRight) ||
		len(gotDiff.Sequences) != len(wantDiff.Sequences) {
		t.Errorf("concurrent diff diverged from serial: %d diffs %+v, want %d diffs %+v",
			gotDiff.NumDiffs(), gotDiff.Stats, wantDiff.NumDiffs(), wantDiff.Stats)
	}
	if !reflect.DeepEqual(gotRegr.D, wantRegr.D) || gotRegr.Sizes != wantRegr.Sizes ||
		!reflect.DeepEqual(gotRegr.Related, wantRegr.Related) {
		t.Errorf("concurrent regression analysis diverged from serial: sizes %+v, want %+v",
			gotRegr.Sizes, wantRegr.Sizes)
	}
	if len(eng.workers) != 0 {
		t.Errorf("slots leaked: %d still held", len(eng.workers))
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
