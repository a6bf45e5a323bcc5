// Regression hunt: the full §4.1 protocol on the motivating example
// (MYFACES-1130). Four traces are collected — original/new version ×
// non-regressing/regressing test — and the analysis computes
// D = (A − B) ∩ C, printing the candidate regression causes with full
// dynamic context.
//
//	go run ./examples/regressionhunt
package main

import (
	"context"
	"fmt"
	"log"

	rprism "repro"
	"repro/internal/subjects"
)

func main() {
	s := subjects.MyFaces()
	fmt.Printf("subject: %s (%d lines)\n", s.Name, s.LOC())
	fmt.Printf("regressing test: document type %q\n", s.RegrArgs[0])
	fmt.Printf("similar non-regressing test: document type %q\n\n", s.CorrectArgs[0])

	tr, err := s.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original output (regressing input): %q\n", tr.Outputs["orig-regr"])
	fmt.Printf("new      output (regressing input): %q\n\n", tr.Outputs["new-regr"])

	an, err := rprism.NewEngine().AnalyzeRegression(context.Background(), rprism.RegressionSources{
		OrigCorrect: rprism.FromTrace(tr.OrigCorrect),
		NewCorrect:  rprism.FromTrace(tr.NewCorrect),
		OrigRegr:    rprism.FromTrace(tr.OrigRegr),
		NewRegr:     rprism.FromTrace(tr.NewRegr),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(an.Report(5))
	fmt.Println("\nNote the first candidates: the BinaryCharFilter constructing a")
	fmt.Println("NumericEntityUtil with min = 1 instead of 32 — the planted cause.")
}
