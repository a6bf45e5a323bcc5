// Command rprism is the CLI front end: trace a program, diff two traces,
// explore views, or run the full regression-cause analysis.
//
//	rprism trace   -src prog.mj -out run.trace [-args a,b] [-exclude C,D]
//	rprism record  -out run.trace [-url serveURL] -- <cmd> [args...]
//	rprism attach  -url serveURL -trace run.trace [-batch N]
//	rprism watch   <session> -url serveURL -baseline <digest> [-webhook URL]
//	rprism diff    -left a.trace -right b.trace [-lcs] [-max 20] [-parallel N]
//	rprism views   -trace run.trace [-show "CM:Main.main/0"] [-max 50]
//	rprism analyze -orig-correct .. -new-correct .. -orig-regr .. -new-regr .. [-removal]
//	rprism convert -dir corpusDir | -trace run.trace [-out new.trace] [-compress]
//	rprism search  <ref> -dir corpusDir | -url serveURL [-k 10] [-farthest]
//	rprism flaky   <refs...> -dir corpusDir | -url serveURL
//	rprism analyses
//
// Every subcommand drives the shared rprism.Engine; analyses run under a
// signal-bound context, so Ctrl-C aborts a long diff mid-loop instead of
// leaving it burning CPU until process teardown.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	rprism "repro"
	"repro/internal/atomicfile"
	"repro/internal/lang"
	"repro/internal/trace"
	"repro/internal/views"
)

// eng is the process-wide analysis engine all subcommands share.
var eng = rprism.NewEngine()

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	// Ctrl-C / SIGTERM cancels the in-flight analysis promptly: the
	// engine threads this context through the differencing hot loops.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch os.Args[1] {
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "record":
		err = cmdRecord(ctx, os.Args[2:])
	case "attach":
		err = cmdAttach(ctx, os.Args[2:])
	case "watch":
		err = cmdWatch(ctx, os.Args[2:])
	case "diff":
		err = cmdDiff(ctx, os.Args[2:])
	case "views":
		err = cmdViews(ctx, os.Args[2:])
	case "analyze":
		err = cmdAnalyze(ctx, os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "protocol":
		err = cmdProtocol(ctx, os.Args[2:])
	case "impact":
		err = cmdImpact(ctx, os.Args[2:])
	case "search":
		err = cmdSearch(ctx, os.Args[2:])
	case "flaky":
		err = cmdFlaky(ctx, os.Args[2:])
	case "analyses":
		err = cmdAnalyses()
	default:
		usage()
	}
	if err != nil {
		var ec exitCodeError
		if errors.As(err, &ec) {
			// `rprism record` forwards the wrapped command's exit code; the
			// failure was already reported, so no extra noise here.
			os.Exit(ec.code)
		}
		fmt.Fprintln(os.Stderr, "rprism:", err)
		if errors.Is(err, errDiverged) {
			os.Exit(3) // regression detected, as distinct from operational failure
		}
		os.Exit(1)
	}
}

// exitCodeError carries a specific process exit code through the error
// return path — the wrapped child's status, forwarded verbatim.
type exitCodeError struct{ code int }

func (e exitCodeError) Error() string { return fmt.Sprintf("exit status %d", e.code) }

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rprism {trace|record|attach|watch|diff|views|analyze|convert|check|protocol|impact|search|flaky|analyses} [flags]")
	os.Exit(2)
}

// cmdAnalyses lists the analyses registered with the engine — the same
// listing rprism-serve exposes at GET /analyses.
func cmdAnalyses() error {
	for _, a := range rprism.Analyses() {
		fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		if len(a.Roles) > 0 {
			fmt.Printf("%-12s   traces: %s\n", "", strings.Join(a.Roles, ", "))
		}
		if a.Params != "" {
			fmt.Printf("%-12s   params: %s\n", "", a.Params)
		}
	}
	return nil
}

// cmdCheck parses and type-checks a program without running it.
func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	src := fs.String("src", "", "program source file")
	_ = fs.Parse(args)
	if *src == "" {
		return fmt.Errorf("check: -src is required")
	}
	text, err := os.ReadFile(*src)
	if err != nil {
		return err
	}
	prog, err := lang.Parse(string(text))
	if err != nil {
		return err
	}
	if err := lang.TypeCheck(prog); err != nil {
		return err
	}
	fmt.Println(lang.TypeCheckSummary(prog))
	return nil
}

// cmdProtocol infers the object protocol of a class from a trace.
func cmdProtocol(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("protocol", flag.ExitOnError)
	path := fs.String("trace", "", "trace file")
	class := fs.String("class", "", "class to infer the protocol of")
	against := fs.String("against", "", "optional second trace to diff protocols against")
	_ = fs.Parse(args)
	if *path == "" || *class == "" {
		return fmt.Errorf("protocol: -trace and -class are required")
	}
	src, err := loadSource("trace", *path)
	if err != nil {
		return err
	}
	model, err := eng.Infer(ctx, src, *class)
	if err != nil {
		return err
	}
	fmt.Print(model)
	if *against == "" {
		return nil
	}
	src2, err := loadSource("against", *against)
	if err != nil {
		return err
	}
	model2, err := eng.Infer(ctx, src2, *class)
	if err != nil {
		return err
	}
	fmt.Println("drift against second trace:")
	for _, ch := range rprism.DiffProtocols(model, model2) {
		fmt.Println(" ", ch)
	}
	return nil
}

// cmdImpact prints the impact surface of a trace pair.
func cmdImpact(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("impact", flag.ExitOnError)
	left := fs.String("left", "", "left trace file")
	right := fs.String("right", "", "right trace file")
	maxItems := fs.Int("max", 10, "max items per dimension")
	parallel := fs.Int("parallel", 0, "intra-diff worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	_ = fs.Parse(args)
	if *left == "" || *right == "" {
		return fmt.Errorf("impact: -left and -right are required")
	}
	l, err := loadSource("left", *left)
	if err != nil {
		return err
	}
	r, err := loadSource("right", *right)
	if err != nil {
		return err
	}
	opts := eng.DefaultDiffOptions()
	opts.Parallelism = *parallel
	surface, err := eng.ImpactWith(ctx, l, r, opts)
	if err != nil {
		return err
	}
	fmt.Print(surface.Report(*maxItems))
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	src := fs.String("src", "", "program source file")
	out := fs.String("out", "", "output trace file")
	progArgs := fs.String("args", "", "comma-separated program arguments")
	exclude := fs.String("exclude", "", "comma-separated classes to exclude (pointcut)")
	jsonl := fs.String("jsonl", "", "also export the trace as JSON lines to this file")
	_ = fs.Parse(args)
	if fs.NArg() > 0 {
		// Only -args feeds Sys.arg: a positional argument would otherwise
		// be dropped and the run recorded without it.
		return fmt.Errorf("trace: unexpected argument %q: pass program arguments with -args a,b,c", fs.Arg(0))
	}
	if *src == "" || *out == "" {
		return fmt.Errorf("trace: -src and -out are required")
	}
	text, err := os.ReadFile(*src)
	if err != nil {
		return err
	}
	prog, err := rprism.Compile(string(text))
	if err != nil {
		return err
	}
	opts := rprism.RunOptions{TraceName: *out}
	if *progArgs != "" {
		opts.Args = strings.Split(*progArgs, ",")
	}
	if *exclude != "" {
		opts.Pointcut = &rprism.Pointcut{ExcludeClasses: strings.Split(*exclude, ",")}
	}
	res, err := rprism.Run(prog, opts)
	if err != nil {
		return err
	}
	fmt.Print(res.Output)
	if res.Err != nil {
		fmt.Println("program error:", res.Err)
	}
	stats := trace.ComputeStats(res.Trace)
	fmt.Printf("trace: %s\n", stats)
	if *jsonl != "" {
		var buf bytes.Buffer
		if err := res.Trace.WriteJSONL(&buf); err != nil {
			return err
		}
		if err := atomicfile.Write(*jsonl, buf.Bytes()); err != nil {
			return err
		}
	}
	return rprism.SaveTrace(res.Trace, *out)
}

func cmdDiff(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	left := fs.String("left", "", "left trace file")
	right := fs.String("right", "", "right trace file")
	useLCS := fs.Bool("lcs", false, "use the LCS baseline instead of views-based differencing")
	maxSeqs := fs.Int("max", 20, "max difference sequences to print")
	parallel := fs.Int("parallel", 0, "intra-diff worker goroutines (0 = GOMAXPROCS, 1 = serial; output is identical)")
	_ = fs.Parse(args)
	if *left == "" || *right == "" {
		return fmt.Errorf("diff: -left and -right are required")
	}
	l, err := loadSource("left", *left)
	if err != nil {
		return err
	}
	r, err := loadSource("right", *right)
	if err != nil {
		return err
	}
	var res *rprism.DiffResult
	if *useLCS {
		res, err = eng.DiffLCS(ctx, l, r, rprism.LCSOptions{})
	} else {
		opts := eng.DefaultDiffOptions()
		opts.Parallelism = *parallel
		res, err = eng.DiffWith(ctx, l, r, opts)
	}
	if err != nil {
		return err
	}
	fmt.Print(res.Format(*maxSeqs))
	fmt.Printf("compares=%d mem=%.1fMB\n", res.Stats.Compares, float64(res.Stats.MemBytes)/1e6)
	return nil
}

func cmdViews(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("views", flag.ExitOnError)
	path := fs.String("trace", "", "trace file")
	show := fs.String("show", "", "view to display, as TYPE:KEY (e.g. CM:Main.main/0)")
	maxEntries := fs.Int("max", 50, "max entries to print")
	_ = fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("views: -trace is required")
	}
	src, err := loadSource("trace", *path)
	if err != nil {
		return err
	}
	web, err := eng.Views(ctx, src)
	if err != nil {
		return err
	}
	if *show == "" {
		c := web.Count()
		fmt.Printf("%d views: %d thread, %d method, %d target-object, %d active-object\n",
			c.Total, c.Thread, c.Method, c.TargetObject, c.ActiveObject)
		for _, n := range web.Names() {
			fmt.Printf("  %s:%s (%d entries)\n", n.Type, n.KeyString(), web.View(n).Len())
		}
		return nil
	}
	parts := strings.SplitN(*show, ":", 2)
	if len(parts) != 2 {
		return fmt.Errorf("views: -show wants TYPE:KEY")
	}
	typ, ok := views.ParseType(parts[0])
	if !ok {
		return fmt.Errorf("views: unknown type %q (TH, CM, TO, AO)", parts[0])
	}
	name, err := views.ParseName(typ, parts[1])
	if err != nil {
		return err
	}
	v := web.View(name)
	if v == nil {
		return fmt.Errorf("views: no view %s", name)
	}
	entries := web.Entries(name)
	if len(entries) > *maxEntries {
		entries = entries[:*maxEntries]
	}
	fmt.Print(trace.FormatEntries(entries))
	return nil
}

func cmdAnalyze(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	oc := fs.String("orig-correct", "", "original version, non-regressing test")
	nc := fs.String("new-correct", "", "new version, non-regressing test")
	or := fs.String("orig-regr", "", "original version, regressing test")
	nr := fs.String("new-regr", "", "new version, regressing test")
	removal := fs.Bool("removal", false, "use (A-B)-C for code-removal regressions")
	maxSeqs := fs.Int("max", 10, "max candidate sequences to print")
	parallel := fs.Int("parallel", 0, "intra-diff worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	_ = fs.Parse(args)
	load := func(p, what string) (rprism.Source, error) {
		if p == "" {
			return nil, fmt.Errorf("analyze: -%s is required", what)
		}
		return loadSource(what, p)
	}
	in := rprism.RegressionSources{Removal: *removal}
	var err error
	if in.OrigCorrect, err = load(*oc, "orig-correct"); err != nil {
		return err
	}
	if in.NewCorrect, err = load(*nc, "new-correct"); err != nil {
		return err
	}
	if in.OrigRegr, err = load(*or, "orig-regr"); err != nil {
		return err
	}
	if in.NewRegr, err = load(*nr, "new-regr"); err != nil {
		return err
	}
	opts := eng.DefaultDiffOptions()
	opts.Parallelism = *parallel
	an, err := eng.AnalyzeRegressionWith(ctx, in, opts)
	if err != nil {
		return err
	}
	fmt.Print(an.Report(*maxSeqs))
	return nil
}
