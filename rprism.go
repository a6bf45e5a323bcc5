// Package rprism is a Go reproduction of RPRISM, the system of
// "Semantics-Aware Trace Analysis" (Hoffman, Eugster, Jagannathan,
// PLDI 2009): semantic views over execution traces, linear-time
// views-based trace differencing, and automated regression-cause
// analysis.
//
// The pipeline, through the Engine API:
//
//	prog, _ := rprism.Compile(src)              // mini-Java program
//	eng     := rprism.NewEngine()               // shared analysis engine
//	left    := rprism.FromRun(prog, rprism.RunOptions{Args: []string{...}})
//	right   := rprism.FromFile("run2.trace")    // any Source works anywhere
//	d, _    := eng.Diff(ctx, left, right)       // views-based differencing
//	an, _   := eng.AnalyzeRegression(ctx, ...)  // D = (A − B) ∩ C
//
// The Engine resolves Sources to cached view webs, honors context
// cancellation inside every analysis hot loop, and dispatches any
// analysis registered with Register — the built-ins (diff, regression,
// protocol, typestate, impact) plus yours. The free functions below
// predate the Engine and remain as thin deprecated wrappers for one
// release.
//
// The original tool instruments Java through AspectJ load-time weaving;
// here a tracing interpreter for a Featherweight-Java-style language
// (extended with assignments, threads, reflection, and run-time class
// definition) plays that role. Everything downstream of the trace
// grammar is faithful to the paper; see DESIGN.md for the substitution
// table and EXPERIMENTS.md for reproduced results.
package rprism

import (
	"repro/internal/diff"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/regression"
	"repro/internal/trace"
	"repro/internal/views"
)

// Program is a compiled (parsed and checked) program.
type Program = lang.Program

// Trace is an execution trace — a sequence of entries per Fig. 4 of the
// paper.
type Trace = trace.Trace

// Entry is one trace entry.
type Entry = trace.Entry

// RunOptions configures program execution; see interp.Options.
type RunOptions = interp.Options

// RunResult carries the trace, program output, and any runtime error.
type RunResult = interp.Result

// Pointcut filters which events are recorded (AspectJ-style exclusion of
// library internals).
type Pointcut = interp.Pointcut

// Web is the linked structure of all semantic views over one trace.
type Web = views.Web

// ViewName identifies one view: thread, method, target-object, or
// active-object.
type ViewName = views.Name

// DiffResult is the outcome of differencing two traces: similarity sets,
// difference sets, and difference sequences.
type DiffResult = diff.Result

// DiffOptions are the tunables of the views-based differencing semantics
// (window size ω, exploration radius δ, relaxed correlation).
type DiffOptions = diff.ViewOptions

// LCSOptions configure the baseline LCS differencing (algorithm and
// memory budget).
type LCSOptions = diff.LCSOptions

// RegressionInput bundles the four traces of the §4.1 analysis protocol.
type RegressionInput = regression.Input

// RegressionAnalysis is the analysis outcome: the candidate set D and the
// regression-related difference sequences.
type RegressionAnalysis = regression.Analysis

// Compile parses and statically checks a program in the mini-Java
// language.
func Compile(src string) (*Program, error) {
	p, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := lang.Check(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Run executes the program under the tracing interpreter, producing an
// execution trace alongside the program output. Runtime failures
// (including Sys.abort) are reported in RunResult.Err with the partial
// trace preserved.
func Run(p *Program, opts RunOptions) (*RunResult, error) {
	return interp.Run(p, opts)
}

// LoadTrace reads a trace file written by SaveTrace.
func LoadTrace(path string) (*Trace, error) { return trace.Load(path) }

// SaveTrace writes a trace to disk for offline analysis.
func SaveTrace(t *Trace, path string) error { return t.Save(path) }
