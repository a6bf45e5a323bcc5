package diff

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lcs"
	"repro/internal/subjects"
	"repro/internal/trace"
)

func runTrace(t *testing.T, src string, args ...string) *trace.Trace {
	t.Helper()
	res, err := interp.Run(lang.MustParse(src), interp.Options{Args: args})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Err != nil && !res.Err.Aborted {
		t.Fatalf("runtime error: %v", res.Err)
	}
	return res.Trace
}

func checkInvariants(t *testing.T, r *Result) {
	t.Helper()
	// Diff and similar sets partition the non-eof entries on each side.
	for _, e := range r.Left.Entries {
		if e.IsEOF() {
			continue
		}
		inDiff := false
		for _, id := range r.DiffLeft {
			if id == e.EID {
				inDiff = true
				break
			}
		}
		if inDiff == r.SimilarLeft.Has(e.EID) {
			t.Fatalf("left entry %d: diff=%v similar=%v", e.EID, inDiff, r.SimilarLeft.Has(e.EID))
		}
	}
	// Sequence entries are all in the diff sets.
	for _, s := range r.Sequences {
		for _, id := range s.Left {
			if r.SimilarLeft.Has(id) {
				t.Fatalf("sequence contains similar left entry %d", id)
			}
		}
		for _, id := range s.Right {
			if r.SimilarRight.Has(id) {
				t.Fatalf("sequence contains similar right entry %d", id)
			}
		}
		if s.Size() == 0 {
			t.Fatal("empty sequence")
		}
	}
}

func TestIdenticalTracesNoDiffs(t *testing.T) {
	src := `
class C {
  Int v;
  C(Int v) { super(); this.v = v; }
  Int get() { return this.v; }
}
class Main {
  void main() {
    let c = new C(7);
    Sys.print(c.get());
  }
}`
	l, r := runTrace(t, src), runTrace(t, src)
	lres, err := LCSDiff(l, r, LCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lres.NumDiffs() != 0 {
		t.Errorf("LCS diffs = %d, want 0\n%s", lres.NumDiffs(), lres.Format(5))
	}
	vres := ViewDiff(l, r, ViewOptions{})
	if vres.NumDiffs() != 0 {
		t.Errorf("views diffs = %d, want 0\n%s", vres.NumDiffs(), vres.Format(5))
	}
	checkInvariants(t, lres)
	checkInvariants(t, vres)
}

// The motivating example's essence: a constant changed (32 → 1) deep in a
// constructor. Both differs must pinpoint the changed set/init events.
func TestChangedConstantLocalized(t *testing.T) {
	mk := func(min int) string {
		return fmt.Sprintf(`
class Util {
  Int min;
  Int max;
  Util(Int a, Int b) { super(); this.min = a; this.max = b; }
  Bool conv(Int x) { return x < this.min || x > this.max; }
}
class Main {
  void main() {
    Sys.print("start");
    let u = new Util(%d, 127);
    Sys.print(u.conv(10));
    Sys.print(u.conv(50));
    Sys.print("end");
  }
}`, min)
	}
	l := runTrace(t, mk(32))
	r := runTrace(t, mk(1))

	for _, mode := range []string{"lcs", "views"} {
		var res *Result
		if mode == "lcs" {
			var err error
			res, err = LCSDiff(l, r, LCSOptions{})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			res = ViewDiff(l, r, ViewOptions{})
		}
		checkInvariants(t, res)
		if res.NumDiffs() == 0 {
			t.Fatalf("%s: no diffs found", mode)
		}
		// All diffs must involve the changed value: init args, the min set,
		// min gets, or the flipped conv(10) result chain.
		for _, id := range res.DiffLeft {
			e := l.Entries[id]
			s := e.String()
			if !strings.Contains(s, "32") && !strings.Contains(s, "conv") &&
				!strings.Contains(s, "true") && !strings.Contains(s, "false") &&
				!strings.Contains(s, "init Util") && !strings.Contains(s, "<init>") {
				t.Errorf("%s: unrelated diff: %s", mode, s)
			}
		}
		// The set of the min field must be among the diffs.
		foundSet := false
		for _, id := range res.DiffRight {
			e := r.Entries[id]
			if e.Event.Kind == trace.KindSet && e.Event.Member == "min" {
				foundSet = true
			}
		}
		if !foundSet {
			t.Errorf("%s: changed field write not in diff set", mode)
		}
	}
}

// Reordered independent operations: LCS marks one of the swapped blocks
// as differences; views-based correlates both via target-object views and
// reports fewer (ideally zero) differences — the paper's accuracy > 100%.
func TestViewsDetectReorderings(t *testing.T) {
	mk := func(swapped bool) string {
		ab := `a.ping(); b.pong();`
		if swapped {
			ab = `b.pong(); a.ping();`
		}
		return `
class Ping {
  Int n;
  void ping() { this.n = this.n + 1; return; }
}
class Pong {
  Int n;
  void pong() { this.n = this.n + 2; return; }
}
class Main {
  void main() {
    let a = new Ping();
    let b = new Pong();
    Sys.print("before");
    ` + ab + `
    Sys.print("after");
  }
}`
	}
	l := runTrace(t, mk(false))
	r := runTrace(t, mk(true))

	lres, err := LCSDiff(l, r, LCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vres := ViewDiff(l, r, ViewOptions{})
	checkInvariants(t, vres)
	if lres.NumDiffs() == 0 {
		t.Fatal("LCS should report the reordering as differences")
	}
	if vres.NumDiffs() >= lres.NumDiffs() {
		t.Errorf("views diffs (%d) should be fewer than LCS diffs (%d)\nviews:\n%s",
			vres.NumDiffs(), lres.NumDiffs(), vres.Format(10))
	}
}

// A new parameter added to a method: LCS gravitates toward correlating
// the identical surrounding values, isolating the new argument (§3.2).
func TestInsertionIsolated(t *testing.T) {
	mk := func(extra bool) string {
		call, decl := "c.go(1);", "Int go(Int x) { this.v = x; return x; }"
		if extra {
			call, decl = "c.go(1, 9);", "Int go(Int x, Int y) { this.v = x; return x; }"
		}
		return `
class C {
  Int v;
  ` + decl + `
}
class Main {
  void main() {
    Sys.print("s");
    let c = new C();
    ` + call + `
    Sys.print("e");
  }
}`
	}
	l := runTrace(t, mk(false))
	r := runTrace(t, mk(true))
	res, err := LCSDiff(l, r, LCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDiffs() == 0 || res.NumDiffs() > 6 {
		t.Errorf("diffs = %d, want a small isolated set\n%s", res.NumDiffs(), res.Format(10))
	}
	vres := ViewDiff(l, r, ViewOptions{})
	checkInvariants(t, vres)
	if vres.NumDiffs() == 0 {
		t.Error("views must flag the changed call")
	}
}

func TestViewsFewerComparesOnLargeTraces(t *testing.T) {
	// The bug perturbs the output of every 7th iteration of a stateless
	// computation, scattering small divergences across the whole trace so
	// common-prefix/suffix trimming cannot save the LCS baseline — the
	// situation of real regressions, where incorrect events are
	// interleaved with large stretches of correct behaviour.
	mk := func(bug bool) string {
		bias := "0"
		if bug {
			bias = "1"
		}
		return `
class Calc {
  Int f(Int x) { return x * 3 % 101; }
}
class Main {
  void main() {
    let c = new Calc();
    let i = 0;
    while (i < 300) {
      let v = c.f(i);
      if (i % 7 == 0) {
        Sys.print(v + ` + bias + `);
      } else {
        Sys.print(v);
      }
      i = i + 1;
    }
  }
}`
	}
	l := runTrace(t, mk(false))
	r := runTrace(t, mk(true))
	if l.Len() < 1000 {
		t.Fatalf("trace too small for this test: %d", l.Len())
	}
	lres, err := LCSDiff(l, r, LCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vres := ViewDiff(l, r, ViewOptions{})
	if vres.Stats.Compares >= lres.Stats.Compares {
		t.Errorf("views compares = %d, LCS compares = %d: no speedup",
			vres.Stats.Compares, lres.Stats.Compares)
	}
	speedup := float64(lres.Stats.Compares) / float64(vres.Stats.Compares)
	if speedup < 2 {
		t.Errorf("speedup = %.2fx, want >= 2x on a %d-entry trace", speedup, l.Len())
	}
}

func TestLCSMemoryExhaustion(t *testing.T) {
	src := `
class Main {
  void main() {
    let i = 0;
    while (i < 100) { Sys.print(i * i); i = i + 1; }
  }
}`
	// Different outputs so prefix/suffix trimming cannot bypass the table.
	src2 := strings.Replace(src, "i * i", "i * i + 1", 1)
	l, r := runTrace(t, src), runTrace(t, src2)
	_, err := LCSDiff(l, r, LCSOptions{MemoryBudget: 1000})
	if !errors.Is(err, lcs.ErrMemoryBudget) {
		t.Errorf("err = %v, want memory budget exhaustion", err)
	}
	// The views-based differ handles the same pair in bounded memory.
	vres := ViewDiff(l, r, ViewOptions{})
	checkInvariants(t, vres)
	if vres.NumDiffs() == 0 {
		t.Error("views differ found nothing")
	}
}

func TestDifferenceSequencesGroupContiguousRuns(t *testing.T) {
	mk := func(a, b int) string {
		return fmt.Sprintf(`
class Main {
  void main() {
    Sys.print("block1");
    Sys.print(%d);
    Sys.print("block2");
    Sys.print(%d);
    Sys.print("block3");
  }
}`, a, b)
	}
	l := runTrace(t, mk(1, 2))
	r := runTrace(t, mk(10, 20))
	res, err := LCSDiff(l, r, LCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sequences) != 2 {
		t.Errorf("sequences = %d, want 2 (one per changed print)\n%s",
			len(res.Sequences), res.Format(10))
	}
	for _, s := range res.Sequences {
		if s.Kind != Modify {
			t.Errorf("sequence kind = %v, want modify", s.Kind)
		}
	}
}

func TestDeleteAndInsertKinds(t *testing.T) {
	base := `
class Main {
  void main() {
    Sys.print("a");
    %s
    Sys.print("b");
  }
}`
	l := runTrace(t, fmt.Sprintf(base, `Sys.print("extra");`))
	r := runTrace(t, fmt.Sprintf(base, ""))
	res, err := LCSDiff(l, r, LCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sequences) != 1 || res.Sequences[0].Kind != Delete {
		t.Errorf("want one delete sequence, got %+v", res.Sequences)
	}
	res2, err := LCSDiff(r, l, LCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Sequences) != 1 || res2.Sequences[0].Kind != Insert {
		t.Errorf("want one insert sequence, got %+v", res2.Sequences)
	}
}

func TestMultithreadedDiffPerThread(t *testing.T) {
	mk := func(workB string) string {
		return `
class Worker {
  Int id;
  Worker(Int id) { super(); this.id = id; }
  void work(Int bias) {
    let i = 0;
    while (i < 10) { Sys.print(this.id * 1000 + i + bias); i = i + 1; }
  }
}
class Main {
  void main() {
    let a = new Worker(1);
    let b = new Worker(2);
    spawn { a.work(0); }
    spawn { b.work(` + workB + `); }
    Sys.print("main done");
  }
}`
	}
	l := runTrace(t, mk("0"))
	r := runTrace(t, mk("5")) // only worker b's behaviour changes
	res := ViewDiff(l, r, ViewOptions{})
	checkInvariants(t, res)
	if res.NumDiffs() == 0 {
		t.Fatal("no diffs found")
	}
	// All differences must be on worker b's thread: the other threads'
	// behaviour is unchanged and must correlate cleanly.
	for _, id := range res.DiffLeft {
		e := l.Entries[id]
		if s := e.String(); !strings.Contains(s, "work") && !strings.Contains(s, "100") &&
			!strings.Contains(s, "200") {
			t.Errorf("unexpected diff outside workers: %s", s)
		}
	}
	// Thread 1 (worker a) events must not appear among diffs.
	for _, id := range res.DiffLeft {
		if l.Entries[id].TID == 1 {
			t.Errorf("worker a entry %d flagged as diff: %s", id, l.Entries[id])
		}
	}
}

func TestViewDiffAbortedTrace(t *testing.T) {
	ok := `
class Main {
  void main() {
    Sys.print("q1");
    Sys.print("q2");
  }
}`
	bad := `
class Main {
  void main() {
    Sys.print("q1");
    Sys.abort("compile error");
    Sys.print("q2");
  }
}`
	l, r := runTrace(t, ok), runTrace(t, bad)
	res := ViewDiff(l, r, ViewOptions{})
	checkInvariants(t, res)
	if res.NumDiffs() == 0 {
		t.Error("divergence after abort must be flagged")
	}
}

func TestFormatOutput(t *testing.T) {
	l := runTrace(t, `class Main { void main() { Sys.print(1); } }`)
	r := runTrace(t, `class Main { void main() { Sys.print(2); } }`)
	res, err := LCSDiff(l, r, LCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format(0)
	if !strings.Contains(out, "sequence 1") || !strings.Contains(out, "differences") {
		t.Errorf("format output:\n%s", out)
	}
	// Truncation.
	out = res.Format(1)
	if out == "" {
		t.Error("empty format")
	}
}

func TestViewExplorationsCounted(t *testing.T) {
	l := runTrace(t, `class Main { void main() { Sys.print(1); Sys.print("x"); } }`)
	r := runTrace(t, `class Main { void main() { Sys.print(2); Sys.print("x"); } }`)
	// QuickScan < 0 disables the cheap lookahead so every divergence
	// exercises the exploration machinery.
	res := ViewDiff(l, r, ViewOptions{QuickScan: -1})
	if res.Stats.ViewExplorations == 0 {
		t.Error("divergence must trigger secondary-view exploration")
	}
	if res.Stats.Compares == 0 {
		t.Error("compares not counted")
	}
}

// TestRadiusSaturates pins that a δ past every thread view's length
// behaves as "the whole view": MaxInt must collect the same linked views
// as 1<<20, not wrap pos+δ negative and skip SIMILAR-FROM-LINKED-VIEWS.
func TestRadiusSaturates(t *testing.T) {
	l, r := subjects.GenCorpusTrace(3, 0, 2000), subjects.GenCorpusTrace(3, 1, 2000)
	run := func(radius int) Stats {
		opts := DefaultViewOptions()
		opts.Radius, opts.Parallelism = radius, 1
		return ViewDiff(l, r, opts).Stats
	}
	if wide, huge := run(1<<20), run(math.MaxInt); wide != huge {
		t.Errorf("radius MaxInt stats %+v, want radius 1<<20's %+v", huge, wide)
	}
}
