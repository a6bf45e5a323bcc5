package weave

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/inject"
	"repro/internal/trace"
)

// repoRoot locates the repro checkout this test file lives in — the
// runtime source woven binaries link against.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// demoModule writes a small two-package module with no rprism imports:
// the canonical zero-touch subject. Returns its directory.
func demoModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/demo\n\ngo 1.24\n")
	write("main.go", `package main

import (
	"sync"

	"example.com/demo/sub"
)

func run(n int) int {
	var wg sync.WaitGroup
	wg.Add(1)
	total := 0
	go func(k int) {
		defer wg.Done()
		total = sub.Work(k)
	}(n)
	wg.Wait()
	return total
}

func main() {
	println(run(3) + useGen())
}
`)
	write("sub/sub.go", `package sub

type Acc struct{ n int }

func (a *Acc) Add(d int) { a.n += d }

func (a Acc) Total() int { return a.n }

func Work(n int) int {
	a := &Acc{}
	for i := 0; i < n; i++ {
		a.Add(i)
	}
	return a.Total()
}
`)
	write("gen/gen.go", `package gen

// A package the filter tests exclude.
func Generated() int { return 42 }
`)
	write("main_use_gen.go", `package main

import "example.com/demo/gen"

func useGen() int { return gen.Generated() }
`)
	return dir
}

// weaveAndRecord weaves the module, runs the woven binary under the
// capture env contract, and returns the reassembled trace.
func weaveAndRecord(t *testing.T, cfg Config) (*trace.Trace, *Result) {
	t.Helper()
	res, err := Weave(context.Background(), cfg)
	if res != nil {
		t.Cleanup(res.Cleanup)
	}
	if err != nil {
		t.Fatalf("Weave: %v", err)
	}
	capDir := t.TempDir()
	child := exec.Command(res.Binary)
	child.Env = inject.CaptureConfig{Dir: capDir, Name: "t"}.Environ(os.Environ())
	if out, err := child.CombinedOutput(); err != nil {
		t.Fatalf("woven binary failed: %v\n%s", err, out)
	}
	tr, err := trace.LoadSegments(capDir, "t")
	if err != nil {
		t.Fatalf("loading capture: %v", err)
	}
	return tr, res
}

// callMembers collects the distinct method ids invoked in a trace.
func callMembers(tr *trace.Trace) map[string]bool {
	out := map[string]bool{}
	for _, e := range tr.Entries {
		if e.Event.Kind == trace.KindCall {
			out[e.Event.Member] = true
		}
	}
	return out
}

func TestWeaveExternalModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := demoModule(t)
	tr, res := weaveAndRecord(t, Config{
		Patterns:   []string{"."},
		Dir:        dir,
		RuntimeDir: repoRoot(t),
	})

	if res.ModulePath != "example.com/demo" || res.MainPackage != "example.com/demo" {
		t.Errorf("module/main = %s/%s", res.ModulePath, res.MainPackage)
	}
	members := callMembers(tr)
	for _, want := range []string{
		"example.com/demo.main/0",
		"example.com/demo.run/1",
		"example.com/demo/sub.Work/1",
		"example.com/demo/sub.Acc.Add/1",
		"example.com/demo/sub.Acc.Total/0",
		"example.com/demo/gen.Generated/0",
	} {
		if !members[want] {
			t.Errorf("missing woven call %s (have %v)", want, members)
		}
	}
	// Stdlib is never woven: no sync or println hooks may appear.
	for m := range members {
		if strings.HasPrefix(m, "sync.") || strings.HasPrefix(m, "runtime.") {
			t.Errorf("stdlib function woven: %s", m)
		}
	}
	// The goroutine spawn must be bracketed: one fork, one end beyond
	// the main thread's.
	stats := trace.ComputeStats(tr)
	if stats.ByKind[trace.KindFork] != 1 {
		t.Errorf("forks = %d, want 1", stats.ByKind[trace.KindFork])
	}
	if stats.Threads != 2 {
		t.Errorf("threads = %d, want 2", stats.Threads)
	}
}

func TestWeaveFilters(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := demoModule(t)
	tr, _ := weaveAndRecord(t, Config{
		Patterns:   []string{"."},
		Dir:        dir,
		Exclude:    []string{"gen/...", "example.com/demo/sub"},
		RuntimeDir: repoRoot(t),
	})
	members := callMembers(tr)
	if !members["example.com/demo.run/1"] {
		t.Errorf("main package should stay woven: %v", members)
	}
	for m := range members {
		if strings.Contains(m, "/sub.") || strings.Contains(m, "/gen.") {
			t.Errorf("excluded package still woven: %s", m)
		}
	}

	// And the dual: -match narrows to one package.
	tr2, res2 := weaveAndRecord(t, Config{
		Patterns:   []string{"."},
		Dir:        dir,
		Match:      []string{"sub"},
		RuntimeDir: repoRoot(t),
	})
	members2 := callMembers(tr2)
	if members2["example.com/demo.run/1"] {
		t.Errorf("unmatched main package was woven: %v", members2)
	}
	if !members2["example.com/demo/sub.Work/1"] {
		t.Errorf("matched package not woven: %v", members2)
	}
	for _, p := range res2.Packages {
		if p.ImportPath != "example.com/demo/sub" && p.Files > 0 {
			t.Errorf("package %s has woven files outside the match", p.ImportPath)
		}
	}
}

func TestWeaveNoMainPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list")
	}
	dir := demoModule(t)
	_, err := Weave(context.Background(), Config{
		Patterns:   []string{"./sub"},
		Dir:        dir,
		RuntimeDir: repoRoot(t),
	})
	if err == nil || !strings.Contains(err.Error(), "no main package") {
		t.Fatalf("want 'no main package' error, got %v", err)
	}
}

func TestWeaveReproExample(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	// Weaving inside the repro module itself: no go.mod grafting, and
	// the runtime-closure exclusion keeps the recorder out of the weave.
	root := repoRoot(t)
	tr, res := weaveAndRecord(t, Config{
		Patterns: []string{"./examples/weave"},
		Dir:      root,
	})
	members := callMembers(tr)
	for _, want := range []string{
		"repro/examples/weave.main/0",
		"repro/examples/weave.work/3",
		"repro/examples/weave.step/2",
		"repro/examples/weave.counter.add/1",
		"repro/examples/weave.counter.total/0",
	} {
		if !members[want] {
			t.Errorf("missing woven call %s (have %v)", want, members)
		}
	}
	for m := range members {
		if strings.HasPrefix(m, "repro/capture") || strings.HasPrefix(m, "repro/internal") {
			t.Errorf("runtime closure woven: %s", m)
		}
	}
	for _, p := range res.Packages {
		if !p.Typed {
			t.Errorf("package %s fell back to syntactic hoisting", p.ImportPath)
		}
	}
	stats := trace.ComputeStats(tr)
	if stats.ByKind[trace.KindFork] != 3 || stats.Threads != 4 {
		t.Errorf("forks/threads = %d/%d, want 3/4", stats.ByKind[trace.KindFork], stats.Threads)
	}
}
