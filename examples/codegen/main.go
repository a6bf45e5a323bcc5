// Codegen: differencing across dynamically generated code (the
// XALANJ-1725 scenario). The regression's cause lives in a compiler that
// generates class source at run time; the effect only manifests when the
// generated class executes. Static analyses cannot connect the two —
// execution traces contain both.
//
//	go run ./examples/codegen
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	rprism "repro"
	"repro/internal/subjects"
)

func main() {
	s := subjects.Xalan1725()
	tr, err := s.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("orig transform: %q\n", strings.TrimSpace(tr.Outputs["orig-regr"]))
	fmt.Printf("new  transform: %q\n\n", strings.TrimSpace(tr.Outputs["new-regr"]))

	d, err := rprism.NewEngine().Diff(context.Background(),
		rprism.FromTrace(tr.OrigRegr), rprism.FromTrace(tr.NewRegr))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("views-based diff: %d differences in %d sequences\n\n",
		d.NumDiffs(), len(d.Sequences))

	// Count how many differing entries execute *inside* the generated
	// Translet class — events no static tool could attribute.
	inGenerated := 0
	for _, id := range d.DiffRight {
		e := tr.NewRegr.Entries[id]
		if strings.HasPrefix(e.Method, "Translet.") ||
			strings.HasPrefix(e.Event.Member, "Translet.") {
			inGenerated++
		}
	}
	fmt.Printf("%d differing entries lie inside the run-time generated Translet class\n", inGenerated)
	fmt.Println()
	fmt.Print(d.Format(4))
}
