package interp

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/trace"
)

func run(t *testing.T, src string, args ...string) *Result {
	t.Helper()
	res, err := Run(lang.MustParse(src), Options{Args: args})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func mustSucceed(t *testing.T, res *Result) *Result {
	t.Helper()
	if res.Err != nil {
		t.Fatalf("runtime error: %v\noutput:\n%s", res.Err, res.Output)
	}
	return res
}

func TestHelloWorld(t *testing.T) {
	res := mustSucceed(t, run(t, `
class Main {
  void main() {
    Sys.print("hello");
  }
}`))
	if res.Output != "hello\n" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestArithmeticAndControlFlow(t *testing.T) {
	res := mustSucceed(t, run(t, `
class Main {
  Int fib(Int n) {
    if (n < 2) { return n; }
    return this.fib(n - 1) + this.fib(n - 2);
  }
  void main() {
    let i = 0;
    let acc = 0;
    while (i < 10) {
      acc = acc + this.fib(i);
      i = i + 1;
    }
    Sys.print(acc);
    Sys.print(7 % 3);
    Sys.print(1.5 + 2);
    Sys.print(10 / 4);
    Sys.print(-(3) * 2);
  }
}`))
	want := "88\n1\n3.5\n2\n-6\n"
	if res.Output != want {
		t.Errorf("output = %q, want %q", res.Output, want)
	}
}

func TestFieldsAndConstructors(t *testing.T) {
	res := mustSucceed(t, run(t, `
class Range {
  Int min;
  Int max;
  Range(Int a, Int b) {
    super();
    this.min = a;
    this.max = b;
  }
  Bool contains(Int x) { return x >= this.min && x <= this.max; }
}
class Main {
  void main() {
    let r = new Range(32, 127);
    Sys.print(r.contains(31));
    Sys.print(r.contains(32));
    Sys.print(r.min);
  }
}`))
	if res.Output != "false\ntrue\n32\n" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestInheritanceAndDynamicDispatch(t *testing.T) {
	res := mustSucceed(t, run(t, `
class Animal {
  String noise() { return "?"; }
  String speak() { return "I say " + this.noise(); }
}
class Dog extends Animal {
  String noise() { return "woof"; }
}
class Puppy extends Dog {
}
class Main {
  void main() {
    Sys.print(new Puppy().speak());
    Sys.print(new Animal().speak());
  }
}`))
	if res.Output != "I say woof\nI say ?\n" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestSuperConstructorChaining(t *testing.T) {
	res := mustSucceed(t, run(t, `
class A {
  Int x;
  A(Int v) { super(); this.x = v; }
}
class B extends A {
  Int y;
  B(Int v) { super(v * 2); this.y = v; }
}
class Main {
  void main() {
    let b = new B(5);
    Sys.print(b.x);
    Sys.print(b.y);
  }
}`))
	if res.Output != "10\n5\n" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestStringBuiltins(t *testing.T) {
	res := mustSucceed(t, run(t, `
class Main {
  void main() {
    let s = "text/html";
    Sys.print(s.equals("text/html"));
    Sys.print(s.length());
    Sys.print(s.contains("html"));
    Sys.print(s.substring(0, 4));
    Sys.print(s.charAt(0));
    Sys.print(s.indexOf("/"));
    Sys.print("a".concat("b"));
    Sys.print(s.startsWith("text"));
    Sys.print("x" + 1 + true);
    Sys.print(42 .toStr());
  }
}`))
	want := "true\n9\ntrue\ntext\n116\n4\nab\ntrue\nx1true\n42\n"
	if res.Output != want {
		t.Errorf("output = %q, want %q", res.Output, want)
	}
}

func TestProgramArgs(t *testing.T) {
	res := mustSucceed(t, run(t, `
class Main {
  void main() {
    Sys.print(Sys.numArgs());
    Sys.print(Sys.arg(0));
    Sys.print(Sys.parseInt(Sys.arg(1)) + 1);
    Sys.print(Sys.arg(9));
  }
}`, "text/html", "41"))
	if res.Output != "2\ntext/html\n42\n\n" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src, frag string
	}{
		{"null deref field", `class C { Int x; } class Main { void main() { let c = null; Sys.print(c.x); } }`, "null dereference"},
		{"null deref call", `class Main { void main() { let c = null; c.m(); } }`, "null dereference"},
		{"no such method", `class C {} class Main { void main() { new C().m(); } }`, "no method"},
		{"no such field", `class C {} class Main { void main() { let c = new C(); Sys.print(c.x); } }`, "no field"},
		{"unknown class", `class Main { void main() { let x = new Nope(); } }`, "unknown class"},
		{"div by zero", `class Main { void main() { let x = 1 / 0; } }`, "division by zero"},
		{"mod by zero", `class Main { void main() { let x = 1 % 0; } }`, "modulo by zero"},
		{"bad condition", `class Main { void main() { if (1) { } } }`, "not Bool"},
		{"arity", `class C { Int f(Int x) { return x; } } class Main { void main() { new C().f(); } }`, "expects 1"},
		{"ctor arity", `class C { C(Int x) { super(); } } class Main { void main() { let c = new C(); } }`, "expects 1"},
		{"abort", `class Main { void main() { Sys.abort("query compilation failed"); } }`, "query compilation failed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := run(t, c.src)
			if res.Err == nil {
				t.Fatalf("expected runtime error containing %q", c.frag)
			}
			if !strings.Contains(res.Err.Error(), c.frag) {
				t.Errorf("error %q does not contain %q", res.Err, c.frag)
			}
		})
	}
}

func TestAbortKeepsPartialTrace(t *testing.T) {
	res := run(t, `
class Main {
  void main() {
    Sys.print("before");
    Sys.abort("boom");
    Sys.print("after");
  }
}`)
	if res.Err == nil || !res.Err.Aborted {
		t.Fatalf("want abort, got %v", res.Err)
	}
	if !strings.Contains(res.Output, "before") || strings.Contains(res.Output, "after") {
		t.Errorf("output = %q", res.Output)
	}
	if res.Trace.Len() == 0 {
		t.Error("trace should contain pre-abort entries")
	}
}

func TestStepBudget(t *testing.T) {
	res, err := Run(lang.MustParse(`
class Main {
  void main() {
    while (true) { let x = 1; }
  }
}`), Options{MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || !strings.Contains(res.Err.Msg, "step budget") {
		t.Errorf("want step budget error, got %v", res.Err)
	}
}

func TestSetupErrors(t *testing.T) {
	if _, err := Run(lang.MustParse(`class C {}`), Options{}); err == nil {
		t.Error("missing Main must fail")
	}
	if _, err := Run(lang.MustParse(`class Main {}`), Options{}); err == nil {
		t.Error("missing main method must fail")
	}
	if _, err := Run(lang.MustParse(`class Main { void main() { return y; } }`), Options{}); err == nil {
		t.Error("check errors must fail")
	}
}

// ---- trace semantics (Fig. 6) ----

func kinds(tr *trace.Trace) []trace.EventKind {
	var out []trace.EventKind
	for _, e := range tr.Entries {
		out = append(out, e.Event.Kind)
	}
	return out
}

func findEntries(tr *trace.Trace, kind trace.EventKind, member string) []trace.Entry {
	var out []trace.Entry
	for _, e := range tr.Entries {
		if e.Event.Kind == kind && (member == "" || e.Event.Member == member) {
			out = append(out, e)
		}
	}
	return out
}

func TestTraceShapeOfSimpleRun(t *testing.T) {
	res := mustSucceed(t, run(t, `
class Util {
  Int min;
  Util(Int m) { super(); this.min = m; }
  Bool ok(Int x) { return x >= this.min; }
}
class Main {
  void main() {
    let u = new Util(32);
    Sys.print(u.ok(40));
  }
}`))
	tr := res.Trace

	inits := findEntries(tr, trace.KindInit, "Util")
	if len(inits) != 1 {
		t.Fatalf("want 1 Util init event, got %d", len(inits))
	}
	init := inits[0]
	if len(init.Event.Args) != 1 || init.Event.Args[0].Str != "Int:[32]" {
		t.Errorf("init args = %v", init.Event.Args)
	}
	if init.Event.Target.Class != "Util" || init.Event.Target.Seq != 1 {
		t.Errorf("init target = %+v", init.Event.Target)
	}

	sets := findEntries(tr, trace.KindSet, "min")
	if len(sets) != 1 {
		t.Fatalf("want 1 set event, got %d", len(sets))
	}
	if sets[0].Method != "Util.<init>/1" {
		t.Errorf("set context method = %q", sets[0].Method)
	}

	gets := findEntries(tr, trace.KindGet, "min")
	if len(gets) != 1 || gets[0].Method != "Util.ok/1" {
		t.Fatalf("get events = %+v", gets)
	}

	calls := findEntries(tr, trace.KindCall, "Util.ok/1")
	if len(calls) != 1 {
		t.Fatalf("want 1 call to Util.ok, got %d", len(calls))
	}
	// Call recorded in the caller's context (METH-E).
	if calls[0].Method != "Main.main/0" {
		t.Errorf("call context = %q, want Main.main/0", calls[0].Method)
	}
	rets := findEntries(tr, trace.KindReturn, "Util.ok/1")
	if len(rets) != 1 || rets[0].Method != "Main.main/0" {
		t.Fatalf("return events = %+v", rets)
	}
	if len(rets[0].Event.Args) != 1 || rets[0].Event.Args[0].Str != "Bool:[true]" {
		t.Errorf("return value repr = %v", rets[0].Event.Args)
	}
}

func TestValueRepresentationsRecursive(t *testing.T) {
	res := mustSucceed(t, run(t, `
class Inner {
  Int v;
  Inner(Int v) { super(); this.v = v; }
}
class Outer {
  Inner inner;
  Outer(Inner i) { super(); this.inner = i; }
}
class Main {
  void main() {
    let o = new Outer(new Inner(7));
    let x = o.inner;
  }
}`))
	gets := findEntries(res.Trace, trace.KindGet, "inner")
	if len(gets) != 1 {
		t.Fatalf("gets = %+v", gets)
	}
	tgt := gets[0].Event.Target
	if tgt.Str != "Outer:[Inner:[Int:[7]]]" {
		t.Errorf("outer repr = %q", tgt.Str)
	}
}

func TestOpaqueClassHasEmptyValueRepr(t *testing.T) {
	res := mustSucceed(t, run(t, `
opaque class Log {
  void add(String m) { return; }
}
class Main {
  void main() {
    let l = new Log();
    l.add("x");
  }
}`))
	calls := findEntries(res.Trace, trace.KindCall, "Log.add/1")
	if len(calls) != 1 {
		t.Fatalf("calls = %+v", calls)
	}
	if calls[0].Event.Target.HasValue() {
		t.Errorf("opaque target must have empty value repr: %+v", calls[0].Event.Target)
	}
	if calls[0].Event.Target.Seq != 1 {
		t.Errorf("seq = %d", calls[0].Event.Target.Seq)
	}
}

func TestCreationSequenceNumbers(t *testing.T) {
	res := mustSucceed(t, run(t, `
class C {}
class D {}
class Main {
  void main() {
    let a = new C();
    let b = new C();
    let c = new D();
  }
}`))
	inits := findEntries(res.Trace, trace.KindInit, "")
	var seqs []int
	for _, e := range inits {
		if e.Event.Member == "C" || e.Event.Member == "D" {
			seqs = append(seqs, e.Event.Target.Seq)
		}
	}
	want := []int{1, 2, 1}
	if len(seqs) != 3 || seqs[0] != want[0] || seqs[1] != want[1] || seqs[2] != want[2] {
		t.Errorf("seqs = %v, want %v", seqs, want)
	}
}

func TestCyclicObjectsSerializeWithoutHanging(t *testing.T) {
	res := mustSucceed(t, run(t, `
class Node {
  Node next;
}
class Main {
  void main() {
    let a = new Node();
    let b = new Node();
    a.next = b;
    b.next = a;
    let x = a.next;
  }
}`))
	if res.Trace.Len() == 0 {
		t.Fatal("no trace")
	}
}

func TestDeterminism(t *testing.T) {
	src := `
class Worker {
  Int id;
  Worker(Int id) { super(); this.id = id; }
  void work() {
    let i = 0;
    while (i < 20) { Sys.print(this.id * 100 + i); i = i + 1; }
  }
}
class Main {
  void main() {
    let w1 = new Worker(1);
    let w2 = new Worker(2);
    spawn { w1.work(); }
    spawn { w2.work(); }
    let i = 0;
    while (i < 20) { Sys.print(i); i = i + 1; }
  }
}`
	first := run(t, src)
	for k := 0; k < 3; k++ {
		again := run(t, src)
		if again.Output != first.Output {
			t.Fatal("outputs differ across runs")
		}
		if again.Trace.Len() != first.Trace.Len() {
			t.Fatal("trace lengths differ across runs")
		}
		for j := range first.Trace.Entries {
			if !trace.EventEqual(&first.Trace.Entries[j], &again.Trace.Entries[j]) {
				t.Fatalf("entry %d differs across runs", j)
			}
			if first.Trace.Entries[j].TID != again.Trace.Entries[j].TID {
				t.Fatalf("entry %d thread differs across runs", j)
			}
		}
	}
}

func TestThreadsInterleaveAndFork(t *testing.T) {
	res := mustSucceed(t, run(t, `
class Main {
  void run(Int n) {
    let i = 0;
    while (i < n) { Sys.print("w" + i); i = i + 1; }
  }
  void main() {
    spawn { this.run(30); }
    let i = 0;
    while (i < 30) { Sys.print("m" + i); i = i + 1; }
  }
}`))
	tr := res.Trace
	forks := findEntries(tr, trace.KindFork, "")
	if len(forks) != 1 {
		t.Fatalf("forks = %d", len(forks))
	}
	if len(forks[0].Event.Stack) == 0 {
		t.Error("fork must record spawn ancestry")
	}
	ends := findEntries(tr, trace.KindEnd, "")
	if len(ends) != 2 {
		t.Errorf("ends = %d, want 2 (main + worker)", len(ends))
	}
	ids := tr.ThreadIDs()
	if len(ids) != 2 {
		t.Fatalf("thread ids = %v", ids)
	}
	// Both threads' outputs must be complete.
	if !strings.Contains(res.Output, "m29") || !strings.Contains(res.Output, "w29") {
		t.Errorf("missing output lines:\n%s", res.Output)
	}
	// With quantum 50 and >50 events per thread, output must interleave:
	// some worker line must appear before the last main line.
	wIdx := strings.Index(res.Output, "w0")
	mLast := strings.Index(res.Output, "m29")
	if wIdx == -1 || mLast == -1 || wIdx > mLast {
		t.Errorf("threads did not interleave: w0@%d m29@%d", wIdx, mLast)
	}
}

func TestNestedSpawnAncestry(t *testing.T) {
	res := mustSucceed(t, run(t, `
class Main {
  void main() {
    spawn {
      spawn {
        Sys.print("grandchild");
      }
      Sys.print("child");
    }
    Sys.print("parent");
  }
}`))
	forks := findEntries(res.Trace, trace.KindFork, "")
	if len(forks) != 2 {
		t.Fatalf("forks = %d", len(forks))
	}
	// The second fork (from the child) must have deeper ancestry than the first.
	if len(forks[1].Event.Stack) <= len(forks[0].Event.Stack) {
		t.Errorf("grandchild ancestry depth %d should exceed child's %d",
			len(forks[1].Event.Stack), len(forks[0].Event.Stack))
	}
}

func TestSpawnCapturesLocalsByValue(t *testing.T) {
	res := mustSucceed(t, run(t, `
class Main {
  void main() {
    let x = 1;
    spawn { Sys.print("spawned " + x); }
    x = 2;
    Sys.print("main " + x);
  }
}`))
	if !strings.Contains(res.Output, "spawned 1") {
		t.Errorf("spawn must capture locals at spawn time:\n%s", res.Output)
	}
}

func TestReflectIntrinsics(t *testing.T) {
	res := mustSucceed(t, run(t, `
class Greeter {
  String who;
  Greeter(String w) { super(); this.who = w; }
  String greet() { return "hi " + this.who; }
}
class Main {
  void main() {
    let g = Reflect.create("Greeter", "bob");
    Sys.print(Reflect.call(g, "greet"));
    Sys.print(Reflect.hasClass("Greeter"));
    Sys.print(Reflect.hasClass("Nope"));
    Sys.print(Reflect.className(g));
  }
}`))
	want := "hi bob\ntrue\nfalse\nGreeter\n"
	if res.Output != want {
		t.Errorf("output = %q, want %q", res.Output, want)
	}
}

func TestRuntimeDefineClass(t *testing.T) {
	res := mustSucceed(t, run(t, `
class Main {
  void main() {
    let src = "class Gen { Int mul(Int x) { return x * 3; } }";
    Runtime.defineClass(src);
    let g = Reflect.create("Gen");
    Sys.print(Reflect.call(g, "mul", 14));
  }
}`))
	if res.Output != "42\n" {
		t.Errorf("output = %q", res.Output)
	}
	// The generated class's execution appears in the trace like any other.
	calls := findEntries(res.Trace, trace.KindCall, "Gen.mul/1")
	if len(calls) != 1 {
		t.Errorf("calls to generated code = %d, want 1", len(calls))
	}
}

func TestRuntimeDefineClassErrors(t *testing.T) {
	res := run(t, `
class Main {
  void main() {
    Runtime.defineClass("class {");
  }
}`)
	if res.Err == nil || !strings.Contains(res.Err.Msg, "parse") {
		t.Errorf("want parse error, got %v", res.Err)
	}
	res = run(t, `
class Main {
  void main() {
    Runtime.defineClass("class Main { }");
  }
}`)
	if res.Err == nil || !strings.Contains(res.Err.Msg, "duplicate") {
		t.Errorf("want duplicate error, got %v", res.Err)
	}
}

func TestPointcutExcludesLibraryInternals(t *testing.T) {
	src := `
class Lib {
  Int help(Int x) {
    let noise = 0;
    let i = 0;
    while (i < 10) { noise = noise + this.internal(i); i = i + 1; }
    return noise;
  }
  Int internal(Int x) { return x; }
}
class Main {
  void main() {
    let l = new Lib();
    Sys.print(l.help(1));
  }
}`
	prog := lang.MustParse(src)
	full, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := Run(prog, Options{Pointcut: &Pointcut{ExcludeClasses: []string{"Lib"}}})
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Trace.Len() >= full.Trace.Len() {
		t.Fatalf("filter did not shrink trace: %d vs %d", filtered.Trace.Len(), full.Trace.Len())
	}
	// The call *into* Lib.help remains (recorded in Main.main's context)...
	if n := len(findEntries(filtered.Trace, trace.KindCall, "Lib.help/1")); n != 1 {
		t.Errorf("calls into excluded class = %d, want 1", n)
	}
	// ...but events *within* Lib methods are gone.
	if n := len(findEntries(filtered.Trace, trace.KindCall, "Lib.internal/1")); n != 0 {
		t.Errorf("internal calls recorded despite exclusion: %d", n)
	}
	// Outputs agree: filtering changes observation, not semantics.
	if full.Output != filtered.Output {
		t.Error("pointcut filtering changed program output")
	}
}

func TestPointcutPrefixPattern(t *testing.T) {
	pc := &Pointcut{ExcludeClasses: []string{"java*"}, ExcludeMethods: []string{"C.noisy/0"}}
	if pc.AllowContext("javautil", "javautil.x/0") {
		t.Error("prefix pattern must match")
	}
	if pc.AllowContext("C", "C.noisy/0") {
		t.Error("method exclusion must match")
	}
	if !pc.AllowContext("C", "C.fine/0") {
		t.Error("non-matching context must be allowed")
	}
}

func TestEIDsConsecutive(t *testing.T) {
	res := mustSucceed(t, run(t, `
class Main {
  void main() {
    spawn { Sys.print("a"); }
    Sys.print("b");
  }
}`))
	for i, e := range res.Trace.Entries {
		if int(e.EID) != i {
			t.Fatalf("entry %d has eid %d", i, e.EID)
		}
	}
}

func TestTraceKindsWellFormed(t *testing.T) {
	res := mustSucceed(t, run(t, `
class C {
  Int f;
  Int get() { return this.f; }
}
class Main {
  void main() {
    let c = new C();
    c.f = 3;
    Sys.print(c.get());
  }
}`))
	for _, k := range kinds(res.Trace) {
		if k == trace.KindEOF {
			t.Error("fresh trace must not contain eof entries")
		}
	}
}

func TestSegmentedTracingMatchesInMemory(t *testing.T) {
	src := `
class Acc {
  Int total;
  void add(Int x) { this.total = this.total + x; return; }
}
class Main {
  void main() {
    let acc = new Acc();
    let i = 0;
    while (i < 50) { acc.add(i); i = i + 1; }
    Sys.print(acc.total);
  }
}`
	prog := lang.MustParse(src)
	mem, err := Run(prog, Options{TraceName: "seg"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	segRes, err := Run(prog, Options{TraceName: "seg", SegmentDir: dir, SegmentLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	if segRes.Err != nil {
		t.Fatal(segRes.Err)
	}
	// With segmentation the in-memory trace stays empty...
	if segRes.Trace.Len() != 0 {
		t.Errorf("segmented run kept %d entries in memory", segRes.Trace.Len())
	}
	// ...and the reassembled segments equal the in-memory trace.
	got, err := trace.LoadSegments(dir, "seg")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != mem.Trace.Len() {
		t.Fatalf("segmented %d entries, in-memory %d", got.Len(), mem.Trace.Len())
	}
	for i := range got.Entries {
		if !trace.EventEqual(&got.Entries[i], &mem.Trace.Entries[i]) {
			t.Fatalf("entry %d differs between segmented and in-memory runs", i)
		}
	}
	if segRes.Output != mem.Output {
		t.Error("segmentation changed program output")
	}
}

func TestQuantumDoesNotChangeSemantics(t *testing.T) {
	src := `
class W { Int n; void work(Int k) { let i = 0; while (i < k) { this.n = this.n + i; i = i + 1; } return; } }
class Main {
  void main() {
    let w = new W();
    spawn { w.work(25); }
    let i = 0;
    while (i < 25) { Sys.print("m" + i); i = i + 1; }
  }
}`
	prog := lang.MustParse(src)
	var outputs []string
	var lengths []int
	for _, q := range []int{5, 50, 500} {
		res, err := Run(prog, Options{Quantum: q})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatalf("quantum %d: %v", q, res.Err)
		}
		outputs = append(outputs, sortLines(res.Output))
		lengths = append(lengths, res.Trace.Len())
	}
	// Different quanta produce different interleavings, but the same
	// multiset of output lines and the same trace length.
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Error("quantum changed the set of output lines")
		}
		if lengths[i] != lengths[0] {
			t.Errorf("quantum changed trace length: %v", lengths)
		}
	}
}

func sortLines(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
