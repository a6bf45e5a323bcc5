package weave

import (
	"fmt"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// rewriteOne runs the syntactic (no type info) rewriting pass over a
// single file and returns the output text.
func rewriteOne(t *testing.T, importPath string, mainPkg bool, src string) (string, *PackageResult) {
	t.Helper()
	res, err := RewritePackage(PackageInput{
		ImportPath: importPath,
		MainPkg:    mainPkg,
		Files:      []FileInput{{Name: "in.go", Src: []byte(src)}},
	})
	if err != nil {
		t.Fatalf("RewritePackage: %v", err)
	}
	return string(res.Files[0].Src), res
}

// mustParse asserts the rewritten output is still valid Go.
func mustParse(t *testing.T, src string) {
	t.Helper()
	if _, err := parser.ParseFile(token.NewFileSet(), "out.go", src, parser.ParseComments); err != nil {
		t.Fatalf("rewritten output does not parse: %v\n%s", err, src)
	}
}

func TestHookIDConventions(t *testing.T) {
	src := `package p

type box[T any] struct{ v T }

func plain(a, b int, c string) {}

func (x *box[T]) get() T { return x.v }

func (box[T]) blank(_ int) {}

func variadic(xs ...int) {}

func grouped(a, b int) {}

func init() { plain(1, 2, "") }

func _() {}
`
	out, res := rewriteOne(t, "example.com/m/p", false, src)
	mustParse(t, out)
	for _, want := range []string{
		`.Enter("example.com/m/p.plain/3")`,
		`.Enter("example.com/m/p.box.get/0")`,   // generic method, pointer receiver: stars and [T] stripped
		`.Enter("example.com/m/p.box.blank/1")`, // anonymous receiver still keys on the type
		`.Enter("example.com/m/p.variadic/1")`,
		`.Enter("example.com/m/p.grouped/2")`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing hook %s in:\n%s", want, out)
		}
	}
	// init must not be woven (it can run before the runtime's own init),
	// nor the blank function.
	if strings.Contains(out, `init/0`) || strings.Contains(out, `p._/`) {
		t.Errorf("init or blank function was woven:\n%s", out)
	}
	if res.Stats.Funcs != 5 {
		t.Errorf("Funcs = %d, want 5", res.Stats.Funcs)
	}
}

func TestAnonymousFuncsLeftUnwoven(t *testing.T) {
	src := `package p

func named() {
	f := func() int { return 1 }
	_ = f()
	func() {}()
}
`
	out, res := rewriteOne(t, "m/p", false, src)
	mustParse(t, out)
	if got := strings.Count(out, ".Enter("); got != 1 {
		t.Errorf("Enter hooks = %d, want 1 (literals must stay unwoven):\n%s", got, out)
	}
	if res.Stats.Funcs != 1 {
		t.Errorf("Funcs = %d, want 1", res.Stats.Funcs)
	}
}

func TestMainGetsClose(t *testing.T) {
	src := "package main\n\nfunc main() {}\n"
	out, _ := rewriteOne(t, "m/cmd/x", true, src)
	mustParse(t, out)
	want := `func main() {defer __rprism_weave.Close(); defer __rprism_weave.Enter("m/cmd/x.main/0")(); }`
	if !strings.Contains(out, want) {
		t.Errorf("main bracket wrong:\n%s", out)
	}
	// Close only in the main package's main.
	outLib, _ := rewriteOne(t, "m/p", false, src)
	if strings.Contains(outLib, ".Close()") {
		t.Errorf("non-main package got Close:\n%s", outLib)
	}
}

func TestUnchangedFileStaysVerbatim(t *testing.T) {
	src := "package p\n\nconst K = 1\n\nvar V = K\n"
	out, res := rewriteOne(t, "m/p", false, src)
	if out != src {
		t.Errorf("file without functions was modified:\n%s", out)
	}
	if res.Files[0].Changed {
		t.Error("Changed = true for untouched file")
	}
	if strings.Contains(out, RuntimeIdent) {
		t.Error("runtime import injected into untouched file")
	}
}

func TestGoStatementRewrites(t *testing.T) {
	src := `package p

type obj struct{}

func (obj) m(a int, b string) {}

func f(a int) {}

func g(xs ...int) {}

func spawnAll(o obj, ch chan int) {
	go f(1)
	go o.m(2, "s")
	go func(x int) { _ = x }(3)
	go g(1, 2, 3)
	xs := []int{1}
	go g(xs...)
	go println(len(xs))
	go func() {
		go f(4)
	}()
}
`
	out, res := rewriteOne(t, "m/p", false, src)
	mustParse(t, out)
	if got := strings.Count(out, RuntimeIdent+".Go(func() {"); got != 8 {
		t.Errorf("Go wraps = %d, want 8:\n%s", got, out)
	}
	if strings.Contains(out, "go f(") || strings.Contains(out, "go o.m(") {
		t.Errorf("raw go statement survived:\n%s", out)
	}
	if res.Stats.GoStmts != 8 {
		t.Errorf("GoStmts = %d, want 8", res.Stats.GoStmts)
	}
	// Constants inline; the method value and non-constant args hoist.
	if !strings.Contains(out, "_f := o.m; ") {
		t.Errorf("method value not hoisted:\n%s", out)
	}
	if strings.Contains(out, ":= 1;") || strings.Contains(out, `:= "s";`) {
		t.Errorf("constant argument was hoisted:\n%s", out)
	}
	// Variadic spread preserved.
	if !strings.Contains(out, "...) }) }") {
		t.Errorf("ellipsis lost:\n%s", out)
	}
	// Builtin callee stays inline in the closure.
	if !strings.Contains(out, "println(") || strings.Contains(out, ":= println") {
		t.Errorf("builtin callee mishandled:\n%s", out)
	}
}

func TestNestedGoInsideOperand(t *testing.T) {
	src := `package p

func f() {}

func spawn() {
	go func() {
		go f()
	}()
}
`
	out, _ := rewriteOne(t, "m/p", false, src)
	mustParse(t, out)
	// The inner go statement must be rewritten inside the hoisted outer
	// closure, not left raw.
	if strings.Contains(out, "go f()") {
		t.Errorf("inner go statement left raw:\n%s", out)
	}
	if got := strings.Count(out, RuntimeIdent+".Go("); got != 2 {
		t.Errorf("Go wraps = %d, want 2:\n%s", got, out)
	}
}

func TestLineNumbersPreserved(t *testing.T) {
	src := `package main

func helper(a int,
	b string) {
}

func main() {
	go helper(1, "x")
}
`
	res, err := RewritePackage(PackageInput{
		ImportPath:  "m",
		MainPkg:     true,
		Files:       []FileInput{{Name: "/abs/orig.go", Src: []byte(src)}},
		LinePragmas: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := string(res.Files[0].Src)
	mustParse(t, out)
	if !strings.HasPrefix(out, "//line /abs/orig.go:1\n") {
		t.Errorf("missing //line pragma:\n%s", out)
	}
	// Pragma adds exactly one line; every edit is line-neutral.
	if gotLines, wantLines := strings.Count(out, "\n"), strings.Count(src, "\n")+1; gotLines != wantLines {
		t.Errorf("line count %d, want %d:\n%s", gotLines, wantLines, out)
	}
	// Multi-line arity still counts both parameters.
	if !strings.Contains(out, "helper/2") {
		t.Errorf("arity across lines wrong:\n%s", out)
	}
}

func TestDirectivesSurvive(t *testing.T) {
	src := `//go:build linux || darwin || windows || !tinygo

package p

//go:noinline
func hot() {}
`
	out, _ := rewriteOne(t, "m/p", false, src)
	mustParse(t, out)
	if !strings.Contains(out, "//go:build linux") || !strings.Contains(out, "//go:noinline") {
		t.Errorf("comment directives lost:\n%s", out)
	}
}

func TestRuntimeImportInjectedOnce(t *testing.T) {
	src := "package p\n\nfunc a() {}\n\nfunc b() {}\n"
	out, _ := rewriteOne(t, "m/p", false, src)
	mustParse(t, out)
	want := `; import __rprism_weave "` + RuntimeImport + `"`
	if got := strings.Count(out, want); got != 1 {
		t.Errorf("import injections = %d, want 1:\n%s", got, out)
	}
}

func TestParseErrorSurfaces(t *testing.T) {
	_, err := RewritePackage(PackageInput{
		ImportPath: "m/p",
		Files:      []FileInput{{Name: "bad.go", Src: []byte("package p\nfunc {")}},
	})
	if err == nil {
		t.Fatal("want parse error")
	}
}

func TestArityTable(t *testing.T) {
	cases := []struct {
		params string
		want   int
	}{
		{"", 0},
		{"a int", 1},
		{"a, b int", 2},
		{"a int, b string", 2},
		{"xs ...int", 1},
		{"int, string", 2},
		{"a, b, c int, d ...bool", 4},
	}
	for _, c := range cases {
		src := fmt.Sprintf("package p\n\nfunc f(%s) {}\n", c.params)
		out, _ := rewriteOne(t, "m/p", false, src)
		if !strings.Contains(out, fmt.Sprintf("m/p.f/%d", c.want)) {
			t.Errorf("params %q: want arity %d in:\n%s", c.params, c.want, out)
		}
	}
}

func TestCloseOnlyRewrite(t *testing.T) {
	res, err := RewritePackage(PackageInput{
		ImportPath: "m",
		MainPkg:    true,
		CloseOnly:  true,
		Files: []FileInput{{Name: "main.go", Src: []byte(`package main

func helper() {}

func spawn() { go helper() }

func main() { spawn() }
`)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := string(res.Files[0].Src)
	if !strings.Contains(out, "func main() {defer __rprism_weave.Close(); ") {
		t.Errorf("Close missing:\n%s", out)
	}
	if strings.Contains(out, ".Enter(") || strings.Contains(out, ".Go(") {
		t.Errorf("close-only rewrite instrumented more than main:\n%s", out)
	}
	if res.Stats.Funcs != 0 || res.Stats.GoStmts != 0 {
		t.Errorf("stats should be zero for close-only: %+v", res.Stats)
	}
}
