// Quickstart: compile two versions of a tiny program, trace both, and
// print the semantic diff produced by views-based trace differencing.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	rprism "repro"
)

const original = `
class Range {
  Int min;
  Int max;
  Range(Int a, Int b) { super(); this.min = a; this.max = b; }
  Bool contains(Int x) { return x >= this.min && x <= this.max; }
}
class Main {
  void main() {
    let r = new Range(32, 127);
    Sys.print(r.contains(10));
    Sys.print(r.contains(64));
    Sys.print(r.contains(200));
  }
}`

func main() {
	// The "new version" ships the classic off-by-a-constant regression.
	buggy := original[:0] + original
	buggy = replaceOnce(buggy, "new Range(32, 127)", "new Range(1, 127)")

	left := mustTrace(original, "v1")
	right := mustTrace(buggy, "v2")

	ctx := context.Background()
	eng := rprism.NewEngine()
	d, err := eng.Diff(ctx, rprism.FromTrace(left), rprism.FromTrace(right))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== semantic diff (views-based) ===")
	fmt.Print(d.Format(10))
	fmt.Printf("\ncompare operations: %d\n", d.Stats.Compares)

	// The same pair under the quadratic LCS baseline, for comparison.
	l, err := eng.DiffLCS(ctx, rprism.FromTrace(left), rprism.FromTrace(right), rprism.LCSOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LCS baseline found %d diffs with %d compares\n",
		l.NumDiffs(), l.Stats.Compares)
}

func mustTrace(src, name string) *rprism.Trace {
	prog, err := rprism.Compile(src)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	res, err := rprism.Run(prog, rprism.RunOptions{TraceName: name})
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	if res.Err != nil {
		log.Fatalf("%s: runtime error: %v", name, res.Err)
	}
	fmt.Printf("%s output: %q (%d trace entries)\n", name, res.Output, res.Trace.Len())
	return res.Trace
}

func replaceOnce(s, old, new string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	log.Fatalf("pattern %q not found", old)
	return s
}
