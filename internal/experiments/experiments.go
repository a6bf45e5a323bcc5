// Package experiments orchestrates the paper's evaluation (§5): the
// four real-life case studies (Tables 1 and 2), the motivating-example
// walkthrough (§4.2), and the quantitative iBUGS-style assessment over
// injected regressions (Fig. 14). It is shared by the bench harness
// (bench_test.go) and the rprism-bench command.
package experiments

import (
	"errors"
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/diff"
	"repro/internal/inject"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lcs"
	"repro/internal/regression"
	"repro/internal/subjects"
	"repro/internal/trace"
	"repro/internal/views"
)

// DefaultLCSBudget is the DP-table cell budget for the case studies,
// scaled from the paper's 32 GB machine to our trace sizes so that the
// largest (Derby) trace exhausts it while the others fit — reproducing
// Table 1's "(out of memory failure at 32GB)" row.
const DefaultLCSBudget = 200_000_000

// SideResult is one differencing approach's half of a Table 1 row.
type SideResult struct {
	NumDiffs     int
	DiffSeqs     int
	RegrSeqs     int
	FalsePos     int
	FalseNeg     int
	AnalysisSecs float64
	MemMB        float64
	Compares     int64
	OOM          bool
}

// CaseResult is one benchmark row of Tables 1 and 2.
type CaseResult struct {
	Name         string
	LOC          int
	TraceEntries int
	TracingSecs  float64
	LCS          SideResult
	Views        SideResult
	WallSpeedup  float64
	Counts       views.Counts        // Table 2: views in the original version
	Sizes        regression.SetSizes // Table 2: |A| |B| |C| |D|
}

// RunCase executes the full protocol for one subject with both
// differencing approaches.
func RunCase(s subjects.Subject, lcsBudget int64) (CaseResult, error) {
	res := CaseResult{Name: s.Name, LOC: s.LOC()}

	start := time.Now()
	tr, err := s.Run()
	if err != nil {
		return res, err
	}
	res.TracingSecs = time.Since(start).Seconds()
	res.TraceEntries = tr.OrigRegr.Len()
	res.Counts = views.Build(tr.OrigRegr).Count()

	// Views-based analysis.
	start = time.Now()
	an, err := regression.Analyze(regression.Input{
		OrigCorrect: tr.OrigCorrect, NewCorrect: tr.NewCorrect,
		OrigRegr: tr.OrigRegr, NewRegr: tr.NewRegr,
		RemovalMode: s.RemovalMode,
	})
	if err != nil {
		return res, err
	}
	viewsSecs := time.Since(start).Seconds()
	ev := an.EvaluateAgainst(s.Sites)
	res.Views = SideResult{
		NumDiffs:     an.A.NumDiffs(),
		DiffSeqs:     len(an.A.Sequences),
		RegrSeqs:     len(an.Related),
		FalsePos:     ev.FalsePositives,
		FalseNeg:     ev.FalseNegatives,
		AnalysisSecs: viewsSecs,
		MemMB:        float64(an.A.Stats.MemBytes+an.B.Stats.MemBytes+an.C.Stats.MemBytes) / 1e6,
		Compares:     an.A.Stats.Compares,
	}
	res.Sizes = an.Sizes

	// LCS-based analysis under the memory budget.
	start = time.Now()
	lres, lcsErr := lcsAnalyze(tr, s, lcsBudget)
	lcsSecs := time.Since(start).Seconds()
	if lcsErr != nil {
		if !errors.Is(lcsErr, lcs.ErrMemoryBudget) {
			return res, lcsErr
		}
		res.LCS = SideResult{OOM: true, AnalysisSecs: lcsSecs}
	} else {
		lres.AnalysisSecs = lcsSecs
		res.LCS = lres
		if viewsSecs > 0 {
			res.WallSpeedup = lcsSecs / viewsSecs
		}
	}
	return res, nil
}

func lcsAnalyze(tr *subjects.Traces, s subjects.Subject, budget int64) (SideResult, error) {
	opts := diff.LCSOptions{MemoryBudget: budget}
	a, err := diff.LCSDiff(tr.OrigRegr, tr.NewRegr, opts)
	if err != nil {
		return SideResult{}, err
	}
	b, err := diff.LCSDiff(tr.OrigCorrect, tr.NewCorrect, opts)
	if err != nil {
		return SideResult{}, err
	}
	c, err := diff.LCSDiff(tr.NewCorrect, tr.NewRegr, opts)
	if err != nil {
		return SideResult{}, err
	}
	an := regression.Combine(a, b, c, s.RemovalMode)
	ev := an.EvaluateAgainst(s.Sites)
	return SideResult{
		NumDiffs: a.NumDiffs(),
		DiffSeqs: len(a.Sequences),
		RegrSeqs: len(an.Related),
		FalsePos: ev.FalsePositives,
		FalseNeg: ev.FalseNegatives,
		MemMB:    float64(a.Stats.MemBytes+b.Stats.MemBytes+c.Stats.MemBytes) / 1e6,
		Compares: a.Stats.Compares,
	}, nil
}

// RunAllCases runs every case-study subject.
func RunAllCases(budget int64) ([]CaseResult, error) {
	var out []CaseResult
	for _, s := range subjects.All() {
		r, err := RunCase(s, budget)
		if err != nil {
			return nil, fmt.Errorf("case %s: %w", s.Name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Table1 renders the benchmark/analysis characteristics table.
func Table1(results []CaseResult) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Table 1: benchmark and analysis characteristics")
	fmt.Fprintln(w, "Benchmark\tLOC\tTrace\tTracing\t| LCS:\tDiffs\tSeqs\tRegrSeqs\tFP\tFN\tSecs\tMemMB\t| Views:\tDiffs\tSeqs\tRegrSeqs\tFP\tFN\tSecs\tMemMB\tSpeedup")
	for _, r := range results {
		lcsPart := "(out of memory failure)\t\t\t\t\t\t"
		speed := "-"
		if !r.LCS.OOM {
			lcsPart = fmt.Sprintf("%d\t%d\t%d\t%d\t%d\t%.2f\t%.1f",
				r.LCS.NumDiffs, r.LCS.DiffSeqs, r.LCS.RegrSeqs, r.LCS.FalsePos, r.LCS.FalseNeg,
				r.LCS.AnalysisSecs, r.LCS.MemMB)
			speed = fmt.Sprintf("%.1fx", r.WallSpeedup)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%.2f\t|\t%s\t|\t%d\t%d\t%d\t%d\t%d\t%.2f\t%.1f\t%s\n",
			r.Name, r.LOC, r.TraceEntries, r.TracingSecs, lcsPart,
			r.Views.NumDiffs, r.Views.DiffSeqs, r.Views.RegrSeqs,
			r.Views.FalsePos, r.Views.FalseNeg,
			r.Views.AnalysisSecs, r.Views.MemMB, speed)
	}
	w.Flush()
	// The §6 dynamic-slicing comparison: differences as a fraction of
	// executed events.
	fmt.Fprintln(&b, "\nCandidate differences as % of trace entries (cf. dynamic slicing, §6):")
	for _, r := range results {
		if r.TraceEntries > 0 {
			fmt.Fprintf(&b, "  %-14s %.4f%%\n", r.Name,
				100*float64(r.Views.RegrSeqs)/float64(r.TraceEntries))
		}
	}
	return b.String()
}

// Table2 renders the view counts and analysis set sizes.
func Table2(results []CaseResult) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Table 2: number of views (original version) and analysis set sizes")
	fmt.Fprintln(w, "Benchmark\tTotal views\tThread\tMethod\tTargetObj\tActiveObj\t|A|\t|B|\t|C|\t|D|")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Name, r.Counts.Total, r.Counts.Thread, r.Counts.Method,
			r.Counts.TargetObject, r.Counts.ActiveObject,
			r.Sizes.A, r.Sizes.B, r.Sizes.C, r.Sizes.D)
	}
	w.Flush()
	return b.String()
}

// ---- quantitative assessment (Fig. 14) ----

// QuantResult is one injected-regression experiment.
type QuantResult struct {
	Bug          int
	Mutation     inject.Mutation
	Script       string
	TraceEntries int
	LCSFailed    bool
	Accuracy     float64
	Speedup      float64
	ViewsDiffs   int
	LCSDiffs     int
}

// QuantConfig parameterizes the Fig. 14 experiment.
type QuantConfig struct {
	Bugs        int   // number of injected regressions (paper: 14 usable)
	ScriptStmts int   // statements per generated script (trace length knob)
	Scripts     int   // size of the test-script pool
	Seed        int64 // base seed
	LCSBudget   int64 // DP budget; exhaustion marks the bug "LCS failed"
}

// DefaultQuantConfig mirrors the paper's scale, shrunk to simulator
// proportions: traces in the thousands of entries with one larger outlier.
func DefaultQuantConfig() QuantConfig {
	return QuantConfig{Bugs: 14, ScriptStmts: 15, Scripts: 8, Seed: 1009, LCSBudget: 300_000_000}
}

// RunQuant injects regressions into the Rhino-like subject per the paper's
// root-cause distribution, finds a failing test script for each, traces
// working and regressing versions, and measures accuracy and speedup of
// views-based differencing against the optimized LCS.
func RunQuant(cfg QuantConfig) ([]QuantResult, error) {
	prog := lang.MustParse(subjects.RhinoSource())

	// Test pool: deterministic scripts of varying sizes, with one longer
	// outlier (the paper's traces were mostly 10K-100K with outliers).
	scripts := make([]string, cfg.Scripts)
	for i := range scripts {
		n := cfg.ScriptStmts * (1 + i%3)
		if i == cfg.Scripts-1 {
			n = cfg.ScriptStmts * 8
		}
		scripts[i] = subjects.GenScript(n, cfg.Seed+int64(i))
	}
	baseline := make([]string, len(scripts))
	for i, sc := range scripts {
		out, err := runScript(prog, sc)
		if err != nil {
			return nil, fmt.Errorf("baseline script %d: %w", i, err)
		}
		baseline[i] = out
	}

	var out []QuantResult
	for bug := 0; bug < cfg.Bugs; bug++ {
		seed := cfg.Seed + int64(bug)*104729
		failing := -1
		mutated, mut, ok := inject.InjectValidated(prog, seed, 200, func(m *lang.Program) bool {
			failing = -1
			for i, sc := range scripts {
				got, err := runScript(m, sc)
				if err != nil {
					return false // mutation broke the interpreter wholesale
				}
				if got != baseline[i] {
					failing = i
					return true
				}
			}
			return false
		})
		if !ok {
			return nil, fmt.Errorf("bug %d: could not inject a test-failing regression", bug)
		}

		origRes, err := interp.Run(prog, interp.Options{Args: []string{scripts[failing]}})
		if err != nil {
			return nil, err
		}
		newRes, err := interp.Run(mutated, interp.Options{Args: []string{scripts[failing]}})
		if err != nil {
			return nil, err
		}

		q := QuantResult{Bug: bug, Mutation: mut, Script: scripts[failing],
			TraceEntries: origRes.Trace.Len()}
		v := diff.ViewDiff(origRes.Trace, newRes.Trace, diff.ViewOptions{})
		q.ViewsDiffs = v.NumDiffs()
		l, lerr := diff.LCSDiff(origRes.Trace, newRes.Trace,
			diff.LCSOptions{MemoryBudget: cfg.LCSBudget})
		if lerr != nil {
			if !errors.Is(lerr, lcs.ErrMemoryBudget) {
				return nil, lerr
			}
			q.LCSFailed = true
		} else {
			q.LCSDiffs = l.NumDiffs()
			total := origRes.Trace.Len() + newRes.Trace.Len()
			q.Accuracy = Accuracy(total, v.NumDiffs(), l.NumDiffs())
			q.Speedup = Speedup(float64(l.Stats.Compares), float64(v.Stats.Compares))
		}
		out = append(out, q)
	}
	return out, nil
}

func runScript(p *lang.Program, script string) (string, error) {
	res, err := interp.Run(p, interp.Options{Args: []string{script}, MaxSteps: 2_000_000})
	if err != nil {
		return "", err
	}
	if res.Err != nil {
		// Aborts (e.g. stack underflow from an injected bug) are a
		// legitimate failing-test outcome.
		return res.Output + "ERROR: " + res.Err.Msg, nil
	}
	return res.Output, nil
}

// Fig14a renders the accuracy histogram.
func Fig14a(results []QuantResult) string {
	h := AccuracyBuckets()
	for _, r := range results {
		if !r.LCSFailed {
			h.Add(r.Accuracy)
		}
	}
	return h.Render("Fig. 14(a): Accuracy (RPrism vs LCS)")
}

// Fig14b renders the speedup histogram.
func Fig14b(results []QuantResult) string {
	h := SpeedupBuckets()
	for _, r := range results {
		if !r.LCSFailed {
			h.Add(r.Speedup)
		}
	}
	return h.Render("Fig. 14(b): Speedup (RPrism vs LCS)")
}

// QuantSummary renders the per-bug detail lines.
func QuantSummary(results []QuantResult) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Bug\tCategory\tTrace\tViewsDiffs\tLCSDiffs\tAccuracy\tSpeedup\tLCS")
	for _, r := range results {
		status := "ok"
		if r.LCSFailed {
			status = "OOM"
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%.1f%%\t%.1fx\t%s\n",
			r.Bug, r.Mutation.Category, r.TraceEntries, r.ViewsDiffs, r.LCSDiffs,
			100*r.Accuracy, r.Speedup, status)
	}
	w.Flush()
	return b.String()
}

// MotivatingExample runs the §4.2 walkthrough on the MyFaces subject and
// renders the analysis report.
func MotivatingExample() (string, error) {
	s := subjects.MyFaces()
	tr, err := s.Run()
	if err != nil {
		return "", err
	}
	an, err := regression.Analyze(regression.Input{
		OrigCorrect: tr.OrigCorrect, NewCorrect: tr.NewCorrect,
		OrigRegr: tr.OrigRegr, NewRegr: tr.NewRegr,
	})
	if err != nil {
		return "", err
	}
	ev := an.EvaluateAgainst(s.Sites)
	var b strings.Builder
	b.WriteString("Motivating example (MYFACES-1130), §4.2 protocol\n")
	fmt.Fprintf(&b, "ground-truth contact: %d true positive, %d false positive, %d false negative sequences\n",
		ev.TruePositives, ev.FalsePositives, ev.FalseNegatives)
	b.WriteString(an.Report(7))
	return b.String(), nil
}

// RhinoQuad traces a fixed §4.1 quadruple of one injected Rhino
// regression: inject.Inject's bug of seed 14 (a typo in an argument of
// Compiler.compileStmt) breaks the output of GenScript(15, 1), the
// regressing input, and runs but passes on GenScript(15, 3). Its three
// diffs each explore hundreds of linked-view windows, as the injected
// bugs of Fig. 14 do, so it is the repo's fixed exploration-heavy
// regression workload (bench rows and pinned compare counts).
func RhinoQuad() (*subjects.Traces, error) {
	prog := lang.MustParse(subjects.RhinoSource())
	mutated, _, ok := inject.Inject(prog, 14)
	if !ok {
		return nil, errors.New("rhino quadruple: no injection site")
	}
	tr := &subjects.Traces{Outputs: map[string]string{}}
	for _, run := range []struct {
		p      *lang.Program
		script int64
		name   string
		dst    **trace.Trace
	}{
		{prog, 3, "orig-correct", &tr.OrigCorrect}, {mutated, 3, "new-correct", &tr.NewCorrect},
		{prog, 1, "orig-regr", &tr.OrigRegr}, {mutated, 1, "new-regr", &tr.NewRegr},
	} {
		res, err := interp.Run(run.p, interp.Options{
			Args: []string{subjects.GenScript(15, run.script)}, TraceName: run.name,
		})
		if err != nil {
			return nil, err
		}
		if res.Err != nil {
			return nil, fmt.Errorf("rhino quadruple: %s: %v", run.name, res.Err)
		}
		*run.dst, tr.Outputs[run.name] = res.Trace, res.Output
	}
	if tr.Outputs["orig-regr"] == tr.Outputs["new-regr"] || tr.Outputs["orig-correct"] != tr.Outputs["new-correct"] {
		return nil, errors.New("rhino quadruple: the injected bug no longer regresses only the regressing input")
	}
	return tr, nil
}
