package rprism

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
)

const v1 = `
class Counter {
  Int n;
  void bump(Int by) { this.n = this.n + by; return; }
}
class Main {
  void main() {
    let c = new Counter();
    c.bump(1);
    c.bump(2);
    Sys.print(c.n);
  }
}`

func TestCompileRunDiffPipeline(t *testing.T) {
	v2 := strings.Replace(v1, "c.bump(2);", "c.bump(3);", 1)

	p1, err := Compile(v1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(v2)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(p1, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(p2, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Output != "3\n" || r2.Output != "4\n" {
		t.Fatalf("outputs: %q %q", r1.Output, r2.Output)
	}

	eng := NewEngine()
	ctx := context.Background()
	d, err := eng.Diff(ctx, FromTrace(r1.Trace), FromTrace(r2.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumDiffs() == 0 {
		t.Fatal("no differences found")
	}
	l, err := eng.DiffLCS(ctx, FromTrace(r1.Trace), FromTrace(r2.Trace), LCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumDiffs() == 0 {
		t.Fatal("LCS found no differences")
	}

	web, err := eng.Views(ctx, FromTrace(r1.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if web.Count().Total == 0 {
		t.Fatal("no views built")
	}
}

func TestCompileRejectsBadPrograms(t *testing.T) {
	if _, err := Compile(`class Main { void main() { return y; } }`); err == nil {
		t.Error("unknown variable must fail compilation")
	}
	if _, err := Compile(`class {`); err == nil {
		t.Error("syntax error must fail compilation")
	}
}

func TestTraceRoundTripThroughDisk(t *testing.T) {
	p, err := Compile(v1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := SaveTrace(r.Trace, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != r.Trace.Len() {
		t.Errorf("round trip: %d vs %d entries", got.Len(), r.Trace.Len())
	}
}

func TestAnalysesFacade(t *testing.T) {
	p, err := Compile(v1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	ctx := context.Background()
	m, err := eng.Infer(ctx, FromTrace(r.Trace), "Counter")
	if err != nil {
		t.Fatal(err)
	}
	if m.Objects != 1 || !m.Allows("bump", "bump") {
		t.Errorf("protocol: %s", m)
	}
	if got := DiffProtocols(m, m); len(got) != 0 {
		t.Errorf("self drift: %v", got)
	}
	decl := ProtocolDecl{Class: "Counter", Allowed: map[string][]string{
		"^": {"bump"}, "bump": {"bump"},
	}}
	v, err := eng.Check(ctx, FromTrace(r.Trace), decl)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Errorf("violations: %v", v)
	}

	v2 := strings.Replace(v1, "c.bump(2);", "c.bump(3);", 1)
	p2, err := Compile(v2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(p2, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Impact(ctx, FromTrace(r.Trace), FromTrace(r2.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if s.Total == 0 || len(s.Classes) == 0 {
		t.Errorf("impact surface empty: %+v", s)
	}
}
