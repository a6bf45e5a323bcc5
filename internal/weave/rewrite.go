// Package weave is rprism's zero-touch instrumenter: it rewrites the
// source of an arbitrary Go module so that every function and method
// records itself through the capture recorder, with no hand edits to the
// target — the role AspectJ load-time weaving plays for the paper's
// original tool, played here at build time.
//
// The module's files are rewritten (this file) into a work directory
// and built with `go build -overlay` (overlay.go), which also lets the
// weaver graft a `require repro` + local `replace` onto the target's
// go.mod, so a module that has never heard of rprism still links the
// runtime.
//
// The rewriting itself is textual, not a reprinted AST: edits are
// computed from the parsed syntax and applied as byte splices that never
// add or remove a line, so `//go:build`, `//go:embed`, and every other
// comment directive survive verbatim and stack traces keep their line
// numbers (a `//line` pragma pins the file name too).
package weave

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strconv"
	"strings"
)

const (
	// RuntimeIdent is the identifier injected hooks are qualified with; the
	// leading underscores keep it out of the way of any plausible user name.
	RuntimeIdent = "__rprism_weave"
	// RuntimeImport is the glue package every woven file imports.
	RuntimeImport = "repro/capture/woven"
)

// HookID builds the stable identifier of a woven function: derived only
// from the package import path, receiver type name, function name, and
// declared parameter count, so the same source produces the same id on
// every build and machine — the property trace
// correlation across program versions depends on.
//
//	repro/examples/weave.work/3          (function)
//	repro/examples/weave.counter.add/1   (method, pointer stars stripped)
func HookID(pkgPath, recv, name string, arity int) string {
	var b strings.Builder
	b.Grow(len(pkgPath) + len(recv) + len(name) + 8)
	b.WriteString(pkgPath)
	b.WriteByte('.')
	if recv != "" {
		b.WriteString(recv)
		b.WriteByte('.')
	}
	b.WriteString(name)
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(arity))
	return b.String()
}

// FileInput is one source file handed to RewritePackage.
type FileInput struct {
	// Name is the file's path as diagnostics should report it (the
	// original on-disk path); it is also used for the //line pragma.
	Name string
	Src  []byte
}

// FileOutput is the rewritten counterpart of a FileInput. Unchanged
// files (no woven functions, no go statements) come back verbatim with
// Changed false so callers can skip overlay entries for them.
type FileOutput struct {
	Name    string
	Src     []byte
	Changed bool
}

// PackageStats counts what the weaver did to one package.
type PackageStats struct {
	Funcs   int  // named functions and methods bracketed with Enter/exit
	GoStmts int  // go statements routed through the runtime's Go
	Typed   bool // go-statement hoisting had full type information
}

// PackageInput is one package's worth of rewriting work.
type PackageInput struct {
	// ImportPath prefixes every hook id.
	ImportPath string
	Files      []FileInput
	// MainPkg injects `defer __rprism_weave.Close()` into func main so
	// the capture finalizes when the program returns normally (os.Exit
	// still bypasses it, as it bypasses every defer).
	MainPkg bool
	// CloseOnly restricts the rewrite to that Close defer: no Enter
	// hooks, no go-statement wrapping. Used when filters exclude the main
	// package — tracing is the user's choice, but capture finalization is
	// not, or every recording of such a build would come back empty.
	CloseOnly bool
	// RuntimeImport overrides the glue import path (default RuntimeImport).
	RuntimeImport string
	// Lookup resolves an import path to gc export data (the files `go
	// list -export` or an importcfg name). When set, go statements are
	// hoisted with full type information — untyped constant arguments are
	// inlined, everything else is evaluated at the spawn point exactly as
	// the original `go` statement did. When nil (or when type checking
	// fails), a syntactic approximation is used; see hoistability notes
	// on rewriteGoStmt.
	Lookup func(path string) (io.ReadCloser, error)
	// ImportMap maps source-level import paths to resolved ones
	// (vendoring), applied before Lookup.
	ImportMap map[string]string
	// LinePragmas prepends a `//line <orig>:1` directive to changed files
	// so compiler diagnostics and stack traces report the original path.
	LinePragmas bool
}

// PackageResult is RewritePackage's output.
type PackageResult struct {
	Files    []FileOutput
	Stats    PackageStats
	Warnings []string
}

// RewritePackage rewrites every file of one package: named functions and
// methods gain a `defer Enter(id)()` bracket, go statements are wrapped
// through the runtime's Go with their operands hoisted to preserve
// evaluation timing, and changed files gain the runtime import. Function
// literals are deliberately left unwoven (they have no stable name to
// key a hook id on; the go-statement wrapping still brackets goroutines
// they spawn), as are package init functions (several may share one
// signature, and they can run before the runtime package's own init).
func RewritePackage(in PackageInput) (*PackageResult, error) {
	if in.RuntimeImport == "" {
		in.RuntimeImport = RuntimeImport
	}
	fset := token.NewFileSet()
	parsed := make([]*ast.File, 0, len(in.Files))
	for _, f := range in.Files {
		af, err := parser.ParseFile(fset, f.Name, f.Src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("weave: parse %s: %w", f.Name, err)
		}
		parsed = append(parsed, af)
	}
	res := &PackageResult{}
	var info *types.Info
	if in.Lookup != nil {
		var err error
		if info, err = checkTypes(fset, in.ImportPath, parsed, in.Lookup, in.ImportMap); err != nil {
			info = nil
			res.Warnings = append(res.Warnings,
				fmt.Sprintf("%s: type info unavailable (%v); go statements hoisted syntactically", in.ImportPath, err))
		}
	}
	res.Stats.Typed = info != nil
	for i, f := range in.Files {
		fr := &fileRewriter{
			src:   f.Src,
			tf:    fset.File(parsed[i].Pos()),
			info:  info,
			stats: &res.Stats,
		}
		out := fr.rewrite(parsed[i], in)
		res.Files = append(res.Files, FileOutput{Name: f.Name, Src: out, Changed: fr.changed})
	}
	return res, nil
}

// checkTypes type-checks the package against gc export data of its
// dependencies. Errors are soft: the caller falls back to syntactic
// hoisting.
func checkTypes(fset *token.FileSet, path string, files []*ast.File,
	lookup func(string) (io.ReadCloser, error), importMap map[string]string) (*types.Info, error) {
	mapped := func(p string) (io.ReadCloser, error) {
		if m, ok := importMap[p]; ok {
			p = m
		}
		return lookup(p)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", mapped),
		Error:    func(error) {}, // collect nothing; first hard error surfaces from Check
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	if path == "" {
		path = "main"
	}
	if _, err := conf.Check(path, fset, files, info); err != nil {
		return nil, err
	}
	return info, nil
}

// edit is one byte-range splice: src[off:end] is replaced by text.
// Zero-width edits (off == end) are insertions.
type edit struct {
	off, end int
	text     string
}

// applyEdits splices non-overlapping edits into src.
func applyEdits(src []byte, edits []edit) []byte {
	sort.SliceStable(edits, func(i, j int) bool { return edits[i].off < edits[j].off })
	var out []byte
	last := 0
	for _, e := range edits {
		out = append(out, src[last:e.off]...)
		out = append(out, e.text...)
		last = e.end
	}
	return append(out, src[last:]...)
}

type fileRewriter struct {
	src     []byte
	tf      *token.File
	info    *types.Info
	stats   *PackageStats
	edits   []edit
	tmpN    int
	changed bool
}

func (fr *fileRewriter) offset(p token.Pos) int { return fr.tf.Offset(p) }

func (fr *fileRewriter) rewrite(f *ast.File, in PackageInput) []byte {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue // declarations without bodies (assembly stubs) have nothing to bracket
		}
		name := fd.Name.Name
		if name == "_" || (fd.Recv == nil && name == "init") {
			continue
		}
		isMain := in.MainPkg && fd.Recv == nil && name == "main" && f.Name.Name == "main"
		off := fr.offset(fd.Body.Lbrace) + 1
		if in.CloseOnly {
			if isMain {
				fr.edits = append(fr.edits, edit{off, off, "defer " + RuntimeIdent + ".Close(); "})
			}
			continue
		}
		id := HookID(in.ImportPath, recvTypeName(fd.Recv), name, arity(fd.Type))
		text := "defer " + RuntimeIdent + ".Enter(" + strconv.Quote(id) + ")(); "
		if isMain {
			// Deferred first so it runs last: main's own exit event is
			// recorded before the capture finalizes.
			text = "defer " + RuntimeIdent + ".Close(); " + text
		}
		fr.edits = append(fr.edits, edit{off, off, text})
		fr.stats.Funcs++
	}

	// Go statements, innermost first, so that a statement nested in an
	// operand of an outer one (go func() { go f() }()) is already
	// rewritten when the outer replacement copies that operand's text.
	var gos []*ast.GoStmt
	if !in.CloseOnly {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				gos = append(gos, g)
			}
			return true
		})
	}
	sort.Slice(gos, func(i, j int) bool { return gos[i].Pos() > gos[j].Pos() })
	for _, g := range gos {
		fr.rewriteGoStmt(g)
		fr.stats.GoStmts++
	}

	if len(fr.edits) == 0 {
		return fr.src
	}
	fr.changed = true
	// The import rides the package clause line; `package p; import x "y"`
	// is valid Go and adds no line.
	impOff := fr.offset(f.Name.End())
	fr.edits = append(fr.edits, edit{impOff, impOff,
		"; import " + RuntimeIdent + " " + strconv.Quote(in.RuntimeImport)})
	out := applyEdits(fr.src, fr.edits)
	if in.LinePragmas {
		// Everything below the pragma keeps its original line number (the
		// edits above never add lines), so one pragma pins the whole file.
		out = append([]byte("//line "+fr.tf.Name()+":1\n"), out...)
	}
	return out
}

// rewriteGoStmt replaces `go f(a, b)` with
//
//	{ __rw0_f := f; __rw0_a0 := a; __rw0_a1 := b; __rprism_weave.Go(func() { __rw0_f(__rw0_a0, __rw0_a1) }) }
//
// preserving the statement's evaluation semantics: the function value
// and its arguments are evaluated at the spawn point, in order, on the
// spawning goroutine, exactly as the go statement specifies; only the
// call itself moves into the recorded goroutine. Operand text is copied
// from the (already rewritten) source, so the replacement introduces no
// new lines beyond those the operands already spanned.
//
// Hoisting exceptions, chosen so the rewrite never changes a program's
// types:
//   - constant arguments (with type info: anything constant or nil; without:
//     syntactic literals) are inlined — hoisting an untyped constant
//     through := would re-type it;
//   - a lone multi-valued call argument (go f(g()) with 2-result g) is
//     hoisted into one temp per result when type info says how many, and
//     inlined into the closure otherwise;
//   - builtin callees and direct references to package-level functions
//     are inlined (immutable, and generic functions cannot be hoisted as
//     values without instantiation); method values and func-typed
//     expressions are hoisted so their receiver is evaluated at spawn.
func (fr *fileRewriter) rewriteGoStmt(g *ast.GoStmt) {
	call := g.Call
	off, end := fr.offset(g.Pos()), fr.offset(g.End())
	n := fr.tmpN
	fr.tmpN++

	var b strings.Builder
	b.WriteString("{ ")
	inlineFun := fr.funInlinable(call.Fun)
	funText := fr.take(call.Fun)
	funName := fmt.Sprintf("__rw%d_f", n)
	if !inlineFun {
		fmt.Fprintf(&b, "%s := %s; ", funName, funText)
	}
	callArgs := make([]string, 0, len(call.Args))
	for i, a := range call.Args {
		text := fr.take(a)
		if fr.constArg(a) {
			callArgs = append(callArgs, text)
			continue
		}
		if k := fr.tupleLen(a); k != 1 {
			if k > 1 {
				names := make([]string, k)
				for j := range names {
					names[j] = fmt.Sprintf("__rw%d_a%d_%d", n, i, j)
				}
				fmt.Fprintf(&b, "%s := %s; ", strings.Join(names, ", "), text)
				callArgs = append(callArgs, names...)
			} else {
				// Unknown arity (no type info, lone call argument): evaluate
				// in the goroutine; the only shape that compiles either way.
				callArgs = append(callArgs, text)
			}
			continue
		}
		an := fmt.Sprintf("__rw%d_a%d", n, i)
		fmt.Fprintf(&b, "%s := %s; ", an, text)
		callArgs = append(callArgs, an)
	}
	b.WriteString(RuntimeIdent + ".Go(func() { ")
	if inlineFun {
		b.WriteString(funText)
	} else {
		b.WriteString(funName)
	}
	b.WriteString("(")
	b.WriteString(strings.Join(callArgs, ", "))
	if call.Ellipsis.IsValid() {
		b.WriteString("...")
	}
	b.WriteString(") }) }")
	fr.edits = append(fr.edits, edit{off, end, b.String()})
}

// take returns node's source text with any edits already recorded inside
// its range applied (and consumed), so outer rewrites compose with inner
// ones.
func (fr *fileRewriter) take(nd ast.Node) string {
	off, end := fr.offset(nd.Pos()), fr.offset(nd.End())
	var inner, kept []edit
	for _, e := range fr.edits {
		if e.off >= off && e.end <= end {
			inner = append(inner, edit{e.off - off, e.end - off, e.text})
		} else {
			kept = append(kept, e)
		}
	}
	if len(inner) == 0 {
		return string(fr.src[off:end])
	}
	fr.edits = kept
	return string(applyEdits(fr.src[off:end], inner))
}

// builtinNames is the syntactic fallback for recognizing builtin callees
// (which cannot be hoisted as values). With type information the real
// resolution is used instead, so shadowing is only a concern untyped.
var builtinNames = map[string]bool{
	"append": true, "cap": true, "clear": true, "close": true, "complex": true,
	"copy": true, "delete": true, "imag": true, "len": true, "make": true,
	"max": true, "min": true, "new": true, "panic": true, "print": true,
	"println": true, "real": true, "recover": true,
}

// funInlinable reports whether the callee expression should be copied
// into the closure rather than hoisted into a temp.
func (fr *fileRewriter) funInlinable(fun ast.Expr) bool {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		if fr.info != nil {
			switch fr.info.Uses[f].(type) {
			case *types.Builtin:
				return true
			case *types.Func:
				// A bare identifier resolving to *types.Func is a
				// package-level function (methods need a selector):
				// immutable, and possibly generic — inline.
				return true
			}
			return false // func-typed variable: hoist for spawn-time value
		}
		return builtinNames[f.Name]
	case *ast.SelectorExpr:
		if fr.info != nil {
			if _, isSel := fr.info.Selections[f]; isSel {
				return false // method value or func field: receiver evaluates at spawn
			}
			if _, ok := fr.info.Uses[f.Sel].(*types.Func); ok {
				return true // qualified package function pkg.F
			}
		}
		return false
	}
	return false
}

// constArg reports whether an argument is a constant (inlined verbatim:
// re-typing it through := could change the program).
func (fr *fileRewriter) constArg(a ast.Expr) bool {
	if fr.info != nil {
		tv, ok := fr.info.Types[a]
		return ok && (tv.Value != nil || tv.IsNil())
	}
	return syntacticallyConst(a)
}

func syntacticallyConst(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return v.Name == "nil" || v.Name == "true" || v.Name == "false"
	case *ast.ParenExpr:
		return syntacticallyConst(v.X)
	case *ast.UnaryExpr:
		switch v.Op {
		case token.ADD, token.SUB, token.XOR, token.NOT:
			return syntacticallyConst(v.X)
		}
		return false
	case *ast.BinaryExpr:
		return syntacticallyConst(v.X) && syntacticallyConst(v.Y)
	}
	return false
}

// tupleLen reports how many values an argument expression produces: 1
// for ordinary expressions, >1 for a multi-valued call, and -1 when a
// lone call argument's arity is unknown (no type info).
func (fr *fileRewriter) tupleLen(a ast.Expr) int {
	if fr.info != nil {
		if tv, ok := fr.info.Types[a]; ok {
			if t, ok := tv.Type.(*types.Tuple); ok {
				return t.Len()
			}
		}
		return 1
	}
	if _, ok := ast.Unparen(a).(*ast.CallExpr); ok {
		return -1
	}
	return 1
}

// recvTypeName extracts the receiver's base type name: stars, parens,
// and generic type parameter lists stripped.
func recvTypeName(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	return baseTypeName(recv.List[0].Type)
}

func baseTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return baseTypeName(t.X)
	case *ast.ParenExpr:
		return baseTypeName(t.X)
	case *ast.IndexExpr:
		return baseTypeName(t.X)
	case *ast.IndexListExpr:
		return baseTypeName(t.X)
	}
	return ""
}

// arity counts declared parameters (each name in a grouped list counts;
// a variadic parameter counts once).
func arity(ft *ast.FuncType) int {
	if ft == nil || ft.Params == nil {
		return 0
	}
	n := 0
	for _, f := range ft.Params.List {
		if len(f.Names) == 0 {
			n++
		} else {
			n += len(f.Names)
		}
	}
	return n
}
