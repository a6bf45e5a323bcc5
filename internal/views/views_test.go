package views

import (
	"math"
	"testing"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/trace"
)

// runTrace executes a program and returns its trace.
func runTrace(t *testing.T, src string, args ...string) *trace.Trace {
	t.Helper()
	res, err := interp.Run(lang.MustParse(src), interp.Options{Args: args})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("runtime error: %v", res.Err)
	}
	return res.Trace
}

const viewsDemo = `
class Log {
  Int count;
  void add(String msg) { this.count = this.count + 1; return; }
}
class Util {
  Int min;
  Util(Int m) { super(); this.min = m; }
  Bool ok(Int x) { return x >= this.min; }
}
class Main {
  void main() {
    let log = new Log();
    log.count = 0;
    let u = new Util(32);
    log.add("start");
    Sys.print(u.ok(40));
    log.add("done");
  }
}`

func TestThreadViewEqualsFullTraceWhenSingleThreaded(t *testing.T) {
	tr := runTrace(t, viewsDemo)
	w := Build(tr)
	tv := w.ThreadView(0)
	if tv == nil {
		t.Fatal("no thread view for main thread")
	}
	// "The example is single threaded, so there is a single thread view
	// which is identical to the full execution trace" (Fig. 2).
	if tv.Len() != tr.Len() {
		t.Errorf("thread view has %d entries, trace has %d", tv.Len(), tr.Len())
	}
	for i, eid := range tv.EIDs {
		if int(eid) != i {
			t.Fatalf("thread view eid %d at position %d", eid, i)
		}
	}
}

func TestViewsPartitionByMapping(t *testing.T) {
	tr := runTrace(t, viewsDemo)
	w := Build(tr)
	// Every non-eof entry belongs to exactly one thread view and at most
	// one method/TO/AO view; membership is consistent with NamesOf and
	// with the links' positions.
	for _, e := range tr.Entries {
		names := w.NamesOf(e.EID)
		if len(names) == 0 {
			t.Fatalf("entry %d belongs to no view", e.EID)
		}
		if names[0] != ThreadName(e.TID) {
			t.Fatalf("entry %d: first link %v, want its thread view", e.EID, names[0])
		}
		for i, n := range names {
			pos, ok := w.PosIn(n, e.EID)
			if !ok {
				t.Fatalf("entry %d not found in its own view %v", e.EID, n)
			}
			if l := w.Links(e.EID)[i]; int(l.Pos) != pos || w.View(n) != w.ViewAt(l.View) {
				t.Fatalf("entry %d link %d = %+v, want view %v at %d", e.EID, i, l, n, pos)
			}
		}
	}
}

func TestMethodViewContents(t *testing.T) {
	tr := runTrace(t, viewsDemo)
	w := Build(tr)
	mv := w.View(MethodName("Log.add/1"))
	if mv == nil {
		t.Fatal("no method view for Log.add/1")
	}
	// Log.add executes twice; each execution contributes get+set events
	// (count increment) recorded while Log.add is on top of the stack.
	for _, e := range w.Entries(MethodName("Log.add/1")) {
		if e.Method != "Log.add/1" {
			t.Errorf("entry %d in method view has context %q", e.EID, e.Method)
		}
	}
	if mv.Len() < 4 {
		t.Errorf("method view too small: %d", mv.Len())
	}
}

func TestTargetObjectViewContents(t *testing.T) {
	tr := runTrace(t, viewsDemo)
	w := Build(tr)
	// Find the Log object's location from its init event.
	var logLoc trace.Loc
	for _, e := range tr.Entries {
		if e.Event.Kind == trace.KindInit && e.Event.Member == "Log" {
			logLoc = e.Event.Target.Loc
		}
	}
	if logLoc == trace.NoLoc {
		t.Fatal("no Log init event")
	}
	tov := w.View(LocName(logLoc))
	if tov == nil {
		t.Fatal("no target object view for Log object")
	}
	// The TO view contains only events targeting that object: its init,
	// field accesses on it, and calls/returns where it is the callee.
	for _, e := range w.Entries(LocName(logLoc)) {
		if e.Event.Target.Loc != logLoc {
			t.Errorf("entry %d targets loc %d, not %d", e.EID, e.Event.Target.Loc, logLoc)
		}
	}
	if tov.Len() < 5 {
		t.Errorf("TO view unexpectedly small: %d", tov.Len())
	}
}

func TestActiveObjectView(t *testing.T) {
	tr := runTrace(t, viewsDemo)
	w := Build(tr)
	var utilLoc trace.Loc
	for _, e := range tr.Entries {
		if e.Event.Kind == trace.KindInit && e.Event.Member == "Util" {
			utilLoc = e.Event.Target.Loc
		}
	}
	aov := w.View(ActiveName(utilLoc))
	if aov == nil {
		t.Fatal("no AO view for Util object")
	}
	for _, e := range w.Entries(ActiveName(utilLoc)) {
		if e.Self.Loc != utilLoc {
			t.Errorf("entry %d self is %d, want %d", e.EID, e.Self.Loc, utilLoc)
		}
	}
}

func TestStringTargetViewsGroupByValue(t *testing.T) {
	tr := runTrace(t, `
class Main {
  void main() {
    let a = "text/html";
    let b = "text/html";
    let c = "text/plain";
    a.equals("x");
    b.equals("y");
    c.equals("z");
  }
}`)
	w := Build(tr)
	var strViews []*View
	for _, n := range w.Names() {
		if n.Type == TargetObject && n.Key&strValueBit != 0 {
			strViews = append(strViews, w.View(n))
		}
	}
	// Two distinct string values → two string TO views.
	if len(strViews) != 2 {
		t.Fatalf("string TO views = %d, want 2", len(strViews))
	}
}

func TestWindowClamping(t *testing.T) {
	tr := runTrace(t, viewsDemo)
	w := Build(tr)
	th := ThreadName(0)
	last := w.ThreadView(0).Len() - 1
	if win := w.Window(th, 0, 3); len(win) != 4 { // position 0: itself + 3 following
		t.Errorf("window at start = %d entries, want 4", len(win))
	}
	if win := w.Window(th, last, 3); len(win) != 4 {
		t.Errorf("window at end = %d entries, want 4", len(win))
	}
	if win := w.Window(th, 10, 3); len(win) != 7 {
		t.Errorf("window mid = %d entries, want 7", len(win))
	}
	if win := w.Window(th, 10, math.MaxInt); len(win) != last+1 {
		t.Errorf("window of radius MaxInt = %d entries, want the whole view (%d)", len(win), last+1)
	}
	if w.Window(ThreadName(99), 0, 3) != nil {
		t.Error("window of missing view must be nil")
	}
	if w.Window(th, last+1, 3) != nil || w.Window(th, -1, 3) != nil {
		t.Error("window at a position outside the view must be nil")
	}
}

func TestNavigationAcrossViews(t *testing.T) {
	tr := runTrace(t, viewsDemo)
	w := Build(tr)
	// Take a call event on the Log object and navigate: it must appear in
	// the thread view, the caller's method view, and the Log TO view.
	for _, e := range tr.Entries {
		if e.Event.Kind != trace.KindCall || e.Event.Member != "Log.add/1" {
			continue
		}
		names := w.NamesOf(e.EID)
		hasType := map[Type]bool{}
		for _, n := range names {
			hasType[n.Type] = true
		}
		if !hasType[Thread] || !hasType[Method] || !hasType[TargetObject] {
			t.Errorf("call entry %d views = %v", e.EID, names)
		}
	}
}

func TestCount(t *testing.T) {
	tr := runTrace(t, viewsDemo)
	w := Build(tr)
	c := w.Count()
	if c.Thread != 1 {
		t.Errorf("thread views = %d", c.Thread)
	}
	if c.Method < 4 { // Main.main, Log.add, Util.ok, ctors...
		t.Errorf("method views = %d", c.Method)
	}
	if c.Total != c.Thread+c.Method+c.TargetObject+c.ActiveObject {
		t.Errorf("counts don't add up: %+v", c)
	}
}

func TestObjectInfo(t *testing.T) {
	tr := runTrace(t, viewsDemo)
	w := Build(tr)
	found := 0
	for l := trace.Loc(1); l < 10; l++ {
		if o, ok := w.Object(l); ok {
			found++
			if o.Class == "" || o.Seq == 0 {
				t.Errorf("incomplete object info: %+v", o)
			}
		}
	}
	if found < 3 { // Main, Log, Util
		t.Errorf("objects observed = %d, want >= 3", found)
	}
}

// ---- correlation ----

func entryWith(method string, target trace.Repr) trace.Entry {
	return trace.Entry{Method: method, Event: trace.Event{Kind: trace.KindCall, Target: target}}
}

func TestCorrelateMethod(t *testing.T) {
	a := entryWith("C.m/2", trace.Repr{})
	b := entryWith("C.m/2", trace.Repr{})
	c := entryWith("C.m/3", trace.Repr{})
	if !CorrelateMethod(a, b) {
		t.Error("equal signatures must correlate")
	}
	if CorrelateMethod(a, c) {
		t.Error("different arity must not correlate")
	}
	if CorrelateMethod(trace.Entry{}, trace.Entry{}) {
		t.Error("empty methods must not correlate")
	}
}

func TestCorrelateTarget(t *testing.T) {
	byValue := func(h uint64) trace.Repr {
		return trace.Repr{Loc: 5, Class: "C", Hash: h, Str: "v", Seq: 9}
	}
	a := entryWith("m", byValue(7))
	b := entryWith("m", trace.Repr{Loc: 8, Class: "C", Hash: 7, Str: "v", Seq: 1})
	if !CorrelateTarget(a, b) {
		t.Error("equal value representations must correlate")
	}
	// Same class + same seq, no values: correlate by creation sequence.
	c := entryWith("m", trace.Repr{Loc: 1, Class: "C", Seq: 3})
	d := entryWith("m", trace.Repr{Loc: 2, Class: "C", Seq: 3})
	if !CorrelateTarget(c, d) {
		t.Error("equal creation sequence must correlate")
	}
	e := entryWith("m", trace.Repr{Loc: 2, Class: "C", Seq: 4})
	if CorrelateTarget(c, e) {
		t.Error("different seq and no value must not correlate")
	}
	f := entryWith("m", trace.Repr{Loc: 2, Class: "D", Seq: 3})
	if CorrelateTarget(c, f) {
		t.Error("different classes must not correlate")
	}
	// Primitive targets (strings) correlate by value only.
	s1 := entryWith("m", trace.Repr{Class: "String", Hash: 5, Str: "x"})
	s2 := entryWith("m", trace.Repr{Class: "String", Hash: 5, Str: "x"})
	s3 := entryWith("m", trace.Repr{Class: "String", Hash: 6, Str: "y"})
	if !CorrelateTarget(s1, s2) || CorrelateTarget(s1, s3) {
		t.Error("string correlation by value failed")
	}
}

func TestCorrelateActive(t *testing.T) {
	a := trace.Entry{Self: trace.Repr{Loc: 1, Class: "C", Seq: 2}}
	b := trace.Entry{Self: trace.Repr{Loc: 9, Class: "C", Seq: 2}}
	c := trace.Entry{Self: trace.Repr{Loc: 9, Class: "C", Seq: 5}}
	if !CorrelateActive(a, b) {
		t.Error("same class+seq must correlate")
	}
	if CorrelateActive(a, c) {
		t.Error("different seq must not correlate")
	}
}

const threadDemo = `
class Main {
  void workA() { let i = 0; while (i < 5) { Sys.print("a" + i); i = i + 1; } }
  void workB() { let i = 0; while (i < 5) { Sys.print("b" + i); i = i + 1; } }
  void main() {
    spawn { this.workA(); }
    spawn { this.workB(); }
    Sys.print("main");
  }
}`

func TestMatchThreadsIdenticalPrograms(t *testing.T) {
	l := runTrace(t, threadDemo)
	r := runTrace(t, threadDemo)
	m := MatchThreads(l, r)
	if len(m.Pairs) != 3 {
		t.Fatalf("matched %d pairs, want 3 (%+v)", len(m.Pairs), m)
	}
	if m.Pairs[0] != 0 {
		t.Errorf("main threads must match: %v", m.Pairs)
	}
	// Spawn order tiebreak: 1↔1, 2↔2.
	if m.Pairs[1] != 1 || m.Pairs[2] != 2 {
		t.Errorf("forked threads mismatched: %v", m.Pairs)
	}
	if len(m.LeftOnly) != 0 || len(m.RightOnly) != 0 {
		t.Errorf("unmatched threads: %+v", m)
	}
}

func TestMatchThreadsExtraThread(t *testing.T) {
	l := runTrace(t, threadDemo)
	r := runTrace(t, `
class Main {
  void workA() { let i = 0; while (i < 5) { Sys.print("a" + i); i = i + 1; } }
  void workB() { let i = 0; while (i < 5) { Sys.print("b" + i); i = i + 1; } }
  void main() {
    spawn { this.workA(); }
    Sys.print("main");
  }
}`)
	m := MatchThreads(l, r)
	if len(m.Pairs) != 2 {
		t.Fatalf("matched %d pairs, want 2", len(m.Pairs))
	}
	if len(m.LeftOnly) != 1 {
		t.Errorf("left-only = %v, want one unmatched", m.LeftOnly)
	}
}

func TestMatchThreadsMainNeverPairsWithWorker(t *testing.T) {
	l := runTrace(t, `class Main { void main() { Sys.print("x"); } }`)
	r := runTrace(t, threadDemo)
	m := MatchThreads(l, r)
	if m.Pairs[0] != 0 {
		t.Errorf("main must pair with main: %v", m.Pairs)
	}
	if len(m.RightOnly) != 2 {
		t.Errorf("right-only = %v", m.RightOnly)
	}
}
