package rprism

// The bench harness regenerates every table and figure of the paper's
// evaluation (§5). Expensive experiment inputs (the case-study results
// and the injected-regression sweep) are computed once per `go test
// -bench` process and shared between related benchmarks; each table or
// figure is printed exactly once to stdout.
//
//	go test -bench=Table1 .        Table 1
//	go test -bench=Table2 .        Table 2
//	go test -bench=Fig14 .         Fig. 14(a) and (b)
//	go test -bench=Motivating .    §4.2 walkthrough
//	go test -bench=Ablation .      design-choice ablations (DESIGN.md)
//	go test -bench=. -benchmem .   everything

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/diff"
	"repro/internal/experiments"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lcs"
	"repro/internal/subjects"
	"repro/internal/trace"
	"repro/internal/views"
)

var (
	casesOnce    sync.Once
	casesResults []experiments.CaseResult
	casesErr     error

	quantOnce    sync.Once
	quantResults []experiments.QuantResult
	quantErr     error

	printTable1 sync.Once
	printTable2 sync.Once
	printFig14a sync.Once
	printFig14b sync.Once
	printMotiv  sync.Once
)

func caseStudies(b *testing.B) []experiments.CaseResult {
	b.Helper()
	casesOnce.Do(func() {
		casesResults, casesErr = experiments.RunAllCases(experiments.DefaultLCSBudget)
	})
	if casesErr != nil {
		b.Fatal(casesErr)
	}
	return casesResults
}

func quant(b *testing.B) []experiments.QuantResult {
	b.Helper()
	quantOnce.Do(func() {
		quantResults, quantErr = experiments.RunQuant(experiments.DefaultQuantConfig())
	})
	if quantErr != nil {
		b.Fatal(quantErr)
	}
	return quantResults
}

// BenchmarkTable1 regenerates Table 1: benchmark and analysis
// characteristics of the four real-life case studies under both
// differencing approaches, including the LCS out-of-memory failure on the
// largest (Derby) trace.
func BenchmarkTable1(b *testing.B) {
	results := caseStudies(b)
	printTable1.Do(func() { fmt.Println("\n" + experiments.Table1(results)) })
	// Per-iteration cost: one full views-based analysis of the smallest
	// subject (the table itself is a one-shot artifact).
	s := subjects.MyFaces()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCase(s, experiments.DefaultLCSBudget); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table 2: view counts (original version) and
// the sizes of the analysis sets A, B, C, D.
func BenchmarkTable2(b *testing.B) {
	results := caseStudies(b)
	printTable2.Do(func() { fmt.Println("\n" + experiments.Table2(results)) })
	tr, err := subjects.MyFaces().Run()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		views.Build(tr.OrigRegr).Count()
	}
}

// BenchmarkFig14aAccuracy regenerates the accuracy histogram of Fig. 14(a)
// over regressions injected into the Rhino-like subject per the paper's
// root-cause distribution.
func BenchmarkFig14aAccuracy(b *testing.B) {
	results := quant(b)
	printFig14a.Do(func() {
		fmt.Println("\n" + experiments.Fig14a(results))
		fmt.Println(experiments.QuantSummary(results))
	})
	benchOneQuantDiff(b, results)
}

// BenchmarkFig14bSpeedup regenerates the speedup histogram of Fig. 14(b)
// from the same experiment sweep.
func BenchmarkFig14bSpeedup(b *testing.B) {
	results := quant(b)
	printFig14b.Do(func() { fmt.Println("\n" + experiments.Fig14b(results)) })
	benchOneQuantDiff(b, results)
}

// benchOneQuantDiff measures the views-based differencing cost on a
// representative injected-regression trace pair.
func benchOneQuantDiff(b *testing.B, results []experiments.QuantResult) {
	b.Helper()
	prog := lang.MustParse(subjects.RhinoSource())
	script := results[1].Script
	l := mustRun(b, prog, script)
	r := mustRun(b, prog, script)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diff.ViewDiff(l, r, diff.ViewOptions{})
	}
}

// BenchmarkMotivatingExample regenerates the §4.2 walkthrough: the
// motivating example's candidate causes with full dynamic context.
func BenchmarkMotivatingExample(b *testing.B) {
	printMotiv.Do(func() {
		out, err := experiments.MotivatingExample()
		if err != nil {
			b.Fatal(err)
		}
		fmt.Println("\n" + out)
	})
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MotivatingExample(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- micro-benchmarks over the pipeline stages ----

func mustRun(b testing.TB, p *lang.Program, args ...string) *trace.Trace {
	b.Helper()
	res, err := interp.Run(p, interp.Options{Args: args})
	if err != nil {
		b.Fatal(err)
	}
	if res.Err != nil && !res.Err.Aborted {
		b.Fatal(res.Err)
	}
	return res.Trace
}

func rhinoPair(b testing.TB, stmts int) (*trace.Trace, *trace.Trace) {
	b.Helper()
	prog := lang.MustParse(subjects.RhinoSource())
	good := mustRun(b, prog, subjects.GenScript(stmts, 5))
	// A version with a planted boundary bug in Machine.arith that fires on
	// roughly 8% of additions, scattering divergences through the trace.
	src := strings.Replace(subjects.RhinoSource(),
		`if (sym.equals("+")) { return a + b; }`,
		`if (sym.equals("+")) { return a + b + a % 13 / 12; }`, 1)
	bad := mustRun(b, lang.MustParse(src), subjects.GenScript(stmts, 5))
	return good, bad
}

// mtPair runs the multithreaded subject twice, the right version with a
// planted per-iteration bias, yielding a trace pair whose diff decomposes
// into `workers` independent thread-pair units.
func mtPair(b *testing.B, workers, iters int) (*trace.Trace, *trace.Trace) {
	b.Helper()
	l := mustRun(b, lang.MustParse(subjects.MultithreadedSource(workers, iters, "0")))
	r := mustRun(b, lang.MustParse(subjects.MultithreadedSource(workers, iters, "1")))
	return l, r
}

// BenchmarkViewDiffParallel measures the intra-diff worker pool on a
// medium multithreaded subject over cached webs: workers=1 is the serial
// baseline, the other rows show the wall-clock scaling (every row
// produces the identical Result).
func BenchmarkViewDiffParallel(b *testing.B) {
	l, r := mtPair(b, 8, 150)
	wl, wr := views.Build(l), views.Build(r)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var res *diff.Result
			for i := 0; i < b.N; i++ {
				res = diff.ViewDiffWebs(wl, wr, diff.ViewOptions{Parallelism: w})
			}
			reportDiff(b, res)
		})
	}
}

// reportDiff attaches a differencing row's domain numbers: the =e
// compares behind the paper's speedup claim and the differences found.
func reportDiff(b *testing.B, res *diff.Result) {
	b.ReportMetric(float64(res.Stats.Compares), "compares/op")
	b.ReportMetric(float64(res.NumDiffs()), "diffs/op")
}

// BenchmarkViewsBuildLarge measures web construction as the trace
// grows: the multithreaded subject at 300 and 3000 iterations per
// worker (about 14K and 144K entries), for scaling curves past the
// sizes the other build rows reach.
func BenchmarkViewsBuildLarge(b *testing.B) {
	for _, iters := range []int{300, 3000} {
		tr := mustRun(b, lang.MustParse(subjects.MultithreadedSource(8, iters, "0")))
		b.Run(fmt.Sprintf("iters=%d", iters), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				views.Build(tr)
			}
			b.ReportMetric(float64(tr.Len()), "entries/op")
		})
	}
}

// BenchmarkInterpreter measures tracing-interpreter throughput
// (entries/op reported as custom metric).
func BenchmarkInterpreter(b *testing.B) {
	prog := lang.MustParse(subjects.RhinoSource())
	script := subjects.GenScript(30, 5)
	var entries int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := interp.Run(prog, interp.Options{Args: []string{script}})
		if err != nil {
			b.Fatal(err)
		}
		entries = res.Trace.Len()
	}
	b.ReportMetric(float64(entries), "entries/op")
}

// BenchmarkViewsBuild measures view-web construction.
func BenchmarkViewsBuild(b *testing.B) {
	prog := lang.MustParse(subjects.RhinoSource())
	tr := mustRun(b, prog, subjects.GenScript(30, 5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		views.Build(tr)
	}
}

// BenchmarkViewDiffMedium and BenchmarkLCSDiffMedium compare the two
// differencing semantics on a mid-size trace pair with a planted bug.
func BenchmarkViewDiffMedium(b *testing.B) {
	l, r := rhinoPair(b, 30)
	b.ResetTimer()
	var res *diff.Result
	for i := 0; i < b.N; i++ {
		res = diff.ViewDiff(l, r, diff.ViewOptions{})
	}
	reportDiff(b, res)
}

func BenchmarkLCSDiffMedium(b *testing.B) {
	l, r := rhinoPair(b, 30)
	b.ResetTimer()
	var compares int64
	for i := 0; i < b.N; i++ {
		res, err := diff.LCSDiff(l, r, diff.LCSOptions{})
		if err != nil {
			b.Fatal(err)
		}
		compares = res.Stats.Compares
	}
	b.ReportMetric(float64(compares), "compares/op")
}

// ---- ablations over the design choices called out in DESIGN.md ----

// BenchmarkAblationWindow varies ω, the windowed-LCS size used when
// exploring correlated secondary views. omega=1024, the largest window
// the server accepts, reports the memory price of a wide window in B/op.
func BenchmarkAblationWindow(b *testing.B) {
	l, r := rhinoPair(b, 30)
	for _, w := range []int{5, 15, 40, 1024} {
		b.Run(fmt.Sprintf("omega=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var diffs int
			var compares int64
			for i := 0; i < b.N; i++ {
				res := diff.ViewDiff(l, r, diff.ViewOptions{Window: w})
				diffs, compares = res.NumDiffs(), res.Stats.Compares
			}
			b.ReportMetric(float64(diffs), "diffs/op")
			b.ReportMetric(float64(compares), "compares/op")
		})
	}
}

// BenchmarkAblationRadius varies δ, the neighborhood radius for
// secondary-view collection.
func BenchmarkAblationRadius(b *testing.B) {
	l, r := rhinoPair(b, 30)
	for _, rad := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("delta=%d", rad), func(b *testing.B) {
			var diffs int
			for i := 0; i < b.N; i++ {
				res := diff.ViewDiff(l, r, diff.ViewOptions{Radius: rad})
				diffs = res.NumDiffs()
			}
			b.ReportMetric(float64(diffs), "diffs/op")
		})
	}
}

// BenchmarkAblationRelaxed toggles the §5 relaxed correlation on a
// method-rename refactoring, the scenario it exists for.
func BenchmarkAblationRelaxed(b *testing.B) {
	src := subjects.Xalan1802() // wholesale-renamed module
	tr, err := src.Run()
	if err != nil {
		b.Fatal(err)
	}
	for _, relaxed := range []bool{false, true} {
		b.Run(fmt.Sprintf("relaxed=%v", relaxed), func(b *testing.B) {
			var diffs int
			for i := 0; i < b.N; i++ {
				res := diff.ViewDiff(tr.OrigRegr, tr.NewRegr, diff.ViewOptions{Relaxed: relaxed})
				diffs = res.NumDiffs()
			}
			b.ReportMetric(float64(diffs), "diffs/op")
		})
	}
}

// BenchmarkAblationReprDepth varies the value-representation depth cap:
// deeper representations improve correlation specificity at tracing cost.
func BenchmarkAblationReprDepth(b *testing.B) {
	prog := lang.MustParse(subjects.RhinoSource())
	script := subjects.GenScript(20, 5)
	for _, depth := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := interp.Run(prog, interp.Options{
					Args: []string{script}, ReprDepth: depth,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLCSAlgorithm compares the DP baseline against
// Hirschberg's linear-space variant (space for time, §3.2).
func BenchmarkAblationLCSAlgorithm(b *testing.B) {
	l, r := rhinoPair(b, 15)
	for _, alg := range []struct {
		name string
		a    lcs.Algorithm
	}{{"dp", lcs.DP}, {"hirschberg", lcs.Hirschberg}} {
		b.Run(alg.name, func(b *testing.B) {
			var mem int64
			for i := 0; i < b.N; i++ {
				res, err := diff.LCSDiff(l, r, diff.LCSOptions{Algorithm: alg.a})
				if err != nil {
					b.Fatal(err)
				}
				mem = res.Stats.MemBytes
			}
			b.ReportMetric(float64(mem), "tablebytes/op")
		})
	}
}

// BenchmarkAblationQuickScan toggles the cheap pre-exploration lookahead:
// with it off, every divergence pays for secondary-view exploration.
func BenchmarkAblationQuickScan(b *testing.B) {
	l, r := rhinoPair(b, 30)
	for _, qs := range []int{-1, 2, 8} {
		b.Run(fmt.Sprintf("quickscan=%d", qs), func(b *testing.B) {
			var compares int64
			var expl int64
			for i := 0; i < b.N; i++ {
				res := diff.ViewDiff(l, r, diff.ViewOptions{QuickScan: qs})
				compares, expl = res.Stats.Compares, res.Stats.ViewExplorations
			}
			b.ReportMetric(float64(compares), "compares/op")
			b.ReportMetric(float64(expl), "explorations/op")
		})
	}
}

// BenchmarkServeDiffConcurrent measures the rprism-serve hot path: N
// goroutines concurrently diffing the same trace pair out of a shared
// corpus. "cached" amortizes one view-web build per trace across every
// request (the store's single-flight memo + diff.ViewDiffWebs); the
// "rebuild" baseline pays two views.Build calls per request, which is
// what serving diffs without the corpus cache would cost.
func BenchmarkServeDiffConcurrent(b *testing.B) {
	l, r := rhinoPair(b, 30)
	b.Run("cached", func(b *testing.B) {
		store, err := corpus.New(b.TempDir(), corpus.Options{})
		if err != nil {
			b.Fatal(err)
		}
		lid, _, err := store.Put(l)
		if err != nil {
			b.Fatal(err)
		}
		rid, _, err := store.Put(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				wl, err := store.ViewsCtx(context.Background(), lid)
				if err != nil {
					b.Error(err)
					return
				}
				wr, err := store.ViewsCtx(context.Background(), rid)
				if err != nil {
					b.Error(err)
					return
				}
				diff.ViewDiffWebs(wl, wr, diff.ViewOptions{})
			}
		})
	})
	b.Run("rebuild", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				diff.ViewDiff(l, r, diff.ViewOptions{})
			}
		})
	})
}

// BenchmarkEngineDiffCached proves the Engine API adds no overhead over
// calling diff.ViewDiffWebs by hand: both sub-benchmarks diff the same
// corpus-cached web pair, "webs" through the free function, "engine"
// through Engine.Diff with FromCorpus sources (source resolution, ctx
// polling, worker accounting included). ns/op and allocs/op must stay
// within noise of each other — compare with
// `go test -bench=EngineDiffCached -benchmem .`.
func BenchmarkEngineDiffCached(b *testing.B) {
	l, r := rhinoPair(b, 30)
	store, err := corpus.New(b.TempDir(), corpus.Options{})
	if err != nil {
		b.Fatal(err)
	}
	lid, _, err := store.Put(l)
	if err != nil {
		b.Fatal(err)
	}
	rid, _, err := store.Put(r)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := store.ViewsCtx(context.Background(), lid)
	if err != nil {
		b.Fatal(err)
	}
	wr, err := store.ViewsCtx(context.Background(), rid)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("webs", func(b *testing.B) {
		b.ReportAllocs()
		var res *diff.Result
		for i := 0; i < b.N; i++ {
			res = diff.ViewDiffWebs(wl, wr, diff.ViewOptions{})
		}
		reportDiff(b, res)
	})
	b.Run("engine", func(b *testing.B) {
		eng := NewEngine(WithCorpus(store))
		left, right := FromCorpus(lid), FromCorpus(rid)
		ctx := context.Background()
		b.ReportAllocs()
		var res *diff.Result
		for i := 0; i < b.N; i++ {
			var err error
			if res, err = eng.Diff(ctx, left, right); err != nil {
				b.Fatal(err)
			}
		}
		reportDiff(b, res)
	})
}

// BenchmarkSegmentedTracing measures the disk-offloading trace writer
// against in-memory collection (the §5 segmentation mechanism).
func BenchmarkSegmentedTracing(b *testing.B) {
	prog := lang.MustParse(subjects.RhinoSource())
	script := subjects.GenScript(20, 5)
	b.Run("inmemory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := interp.Run(prog, interp.Options{Args: []string{script}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("segmented", func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			opts := interp.Options{
				Args: []string{script}, TraceName: fmt.Sprintf("t%d", i),
				SegmentDir: dir, SegmentLimit: 4096,
			}
			if _, err := interp.Run(prog, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
