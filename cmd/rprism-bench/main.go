// Command rprism-bench regenerates the paper's tables and figures:
//
//	rprism-bench -exp table1    Table 1 (benchmark & analysis characteristics)
//	rprism-bench -exp table2    Table 2 (view counts and set sizes)
//	rprism-bench -exp fig14a    Fig. 14(a) accuracy histogram
//	rprism-bench -exp fig14b    Fig. 14(b) speedup histogram
//	rprism-bench -exp myfaces   §4.2 motivating-example walkthrough
//	rprism-bench -exp all       everything
//
// With -json it instead reads the output of the repository's `go test`
// benchmarks from stdin and writes one machine-readable report to
// stdout: a row per benchmark with ns/op, B/op, allocs/op, its custom
// metrics, the median and spread over -count repeats, and the ratios of
// rows paired over the same input:
//
//	go test -run '^$' -bench . -benchmem -count 5 ./... | rprism-bench -exp none -json > BENCH.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, table2, fig14a, fig14b, myfaces, all, none")
	bugs := flag.Int("bugs", 0, "override number of injected bugs for fig14 experiments")
	asJSON := flag.Bool("json", false, "read `go test -bench` output from stdin and write the JSON benchmark report to stdout (needs -exp none)")
	flag.Parse()

	var err error
	switch {
	case *asJSON && *exp != "none":
		err = fmt.Errorf("-json writes the report to stdout; pass -exp none")
	case *asJSON:
		err = writeJSONReport(os.Stdin, os.Stdout)
	case *exp != "none":
		err = run(*exp, *bugs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rprism-bench:", err)
		os.Exit(1)
	}
}

func run(exp string, bugs int) error {
	needCases := exp == "table1" || exp == "table2" || exp == "all"
	needQuant := exp == "fig14a" || exp == "fig14b" || exp == "all"

	var cases []experiments.CaseResult
	var err error
	if needCases {
		if cases, err = experiments.RunAllCases(experiments.DefaultLCSBudget); err != nil {
			return err
		}
	}
	var quant []experiments.QuantResult
	if needQuant {
		cfg := experiments.DefaultQuantConfig()
		if bugs > 0 {
			cfg.Bugs = bugs
		}
		if quant, err = experiments.RunQuant(cfg); err != nil {
			return err
		}
	}

	switch exp {
	case "table1":
		fmt.Println(experiments.Table1(cases))
	case "table2":
		fmt.Println(experiments.Table2(cases))
	case "fig14a":
		fmt.Println(experiments.Fig14a(quant))
		fmt.Println(experiments.QuantSummary(quant))
	case "fig14b":
		fmt.Println(experiments.Fig14b(quant))
		fmt.Println(experiments.QuantSummary(quant))
	case "myfaces":
		out, err := experiments.MotivatingExample()
		if err != nil {
			return err
		}
		fmt.Println(out)
	case "all":
		fmt.Println(experiments.Table1(cases))
		fmt.Println(experiments.Table2(cases))
		fmt.Println(experiments.Fig14a(quant))
		fmt.Println(experiments.Fig14b(quant))
		fmt.Println(experiments.QuantSummary(quant))
		out, err := experiments.MotivatingExample()
		if err != nil {
			return err
		}
		fmt.Println(out)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	ss := trace.GlobalSymbolStats()
	fmt.Printf("symbol table: %d distinct symbols, %.1f KB interned\n",
		ss.Distinct, float64(ss.Bytes)/1024)
	return nil
}
