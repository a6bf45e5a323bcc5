// Multithreaded: thread-view correlation on the Derby-1633 scenario. The
// subject runs background lock-manager and statistics threads next to the
// query-processing thread; XTH pairs the threads across executions by
// spawn-stack similarity, and the views-based diff confines the
// regression differences to the query thread.
//
//	go run ./examples/multithreaded
package main

import (
	"context"
	"fmt"
	"log"

	rprism "repro"
	"repro/internal/subjects"
	"repro/internal/views"
)

func main() {
	s := subjects.Derby1633()
	tr, err := s.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("orig threads: %v\n", tr.OrigRegr.ThreadIDs())
	fmt.Printf("new  threads: %v\n", tr.NewRegr.ThreadIDs())

	m := views.MatchThreads(tr.OrigRegr, tr.NewRegr)
	fmt.Printf("thread correlation (XTH): %v\n\n", m.Pairs)

	ctx := context.Background()
	eng := rprism.NewEngine()
	d, err := eng.Diff(ctx, rprism.FromTrace(tr.OrigRegr), rprism.FromTrace(tr.NewRegr))
	if err != nil {
		log.Fatal(err)
	}
	perThread := map[int]int{}
	for _, id := range d.DiffLeft {
		perThread[int(tr.OrigRegr.Entries[id].TID)]++
	}
	fmt.Printf("differences by original-version thread: %v\n", perThread)
	fmt.Println("(the background threads correlate cleanly; the query thread")
	fmt.Println(" carries the compilation-abort divergence)")
	fmt.Println()

	web, err := eng.Views(ctx, rprism.FromTrace(tr.OrigRegr))
	if err != nil {
		log.Fatal(err)
	}
	c := web.Count()
	fmt.Printf("view web over the original trace: %d views (%d thread, %d method, %d target-object, %d active-object)\n",
		c.Total, c.Thread, c.Method, c.TargetObject, c.ActiveObject)
}
