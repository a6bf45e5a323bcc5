package weave

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Config configures one weaving build.
type Config struct {
	// Patterns are the package patterns to build (e.g. "./cmd/server");
	// exactly one main package must match.
	Patterns []string
	// Dir is the directory to resolve Patterns in (the target module's
	// checkout); empty means the current directory.
	Dir string
	// Match/Exclude narrow which packages are woven (see Filter).
	Match   []string
	Exclude []string
	// IncludeDeps weaves the target's module dependencies too; by default
	// only packages of the main module are woven. The standard library
	// and the rprism runtime closure are never woven.
	IncludeDeps bool
	// RuntimeDir is the repro module checkout providing the capture
	// runtime; see resolveRuntimeDir for the fallback chain.
	RuntimeDir string
	// RuntimeImport overrides the injected glue import path (tests only).
	RuntimeImport string
	// BuildFlags are extra `go build` flags (-race, -tags, ...).
	BuildFlags []string
	// Output is the path for the woven binary; empty means
	// <workdir>/bin/<basename of main package>.
	Output string
	// WorkDir hosts rewritten sources and build scratch; empty means a
	// fresh temp directory.
	WorkDir string
	// KeepWork leaves the work directory behind for inspection (it is
	// also always kept when the build fails).
	KeepWork bool
	// NoTypes disables export-data type checking, forcing the syntactic
	// go-statement hoisting (tests and debugging).
	NoTypes bool
	// GoBin is the go tool to invoke (default "go").
	GoBin string
	// Env is the build environment (default os.Environ()).
	Env []string
	// Stderr receives progress and warnings (default io.Discard).
	Stderr io.Writer
}

// WovenPackage reports per-package weaving statistics.
type WovenPackage struct {
	ImportPath string
	Files      int // files actually changed
	Funcs      int
	GoStmts    int
	Typed      bool
}

// Result describes a completed weave.
type Result struct {
	// Binary is the woven executable.
	Binary string
	// WorkDir holds the rewritten sources, overlay, and scratch files.
	WorkDir string
	// MainPackage is the import path of the woven main package.
	MainPackage string
	// ModulePath is the target module's path.
	ModulePath string
	// Packages lists every package that was woven.
	Packages []WovenPackage
	// Warnings accumulates non-fatal degradations (untyped hoisting,
	// skipped cgo files).
	Warnings []string

	keep bool
}

// Cleanup removes the work directory unless the configuration asked to
// keep it.
func (r *Result) Cleanup() {
	if r == nil || r.keep || r.WorkDir == "" {
		return
	}
	os.RemoveAll(r.WorkDir)
}

// runtimeClosurePrefixes are import-path prefixes that are never woven
// regardless of filters: the capture runtime's own module closure. A
// hook firing from inside the recorder would re-enter it, so exclusion
// here is structural, not advisory. (repro/examples is deliberately NOT
// excluded — the e2e tests weave it.)
var runtimeClosurePrefixes = []string{
	"repro/capture",
	"repro/internal",
	"repro/cmd",
}

func runtimeExcluded(importPath string) bool {
	if importPath == "repro" {
		return true
	}
	for _, p := range runtimeClosurePrefixes {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
}

// selectPackages applies the weaving scope (module membership, runtime
// exclusion, filters) to the dependency-closed package list.
func selectPackages(pkgs []*listPkg, modPath string, includeDeps bool, f Filter) []*listPkg {
	var out []*listPkg
	for _, p := range pkgs {
		if p.Standard || p.Module == nil || len(p.GoFiles) == 0 {
			continue
		}
		if runtimeExcluded(p.ImportPath) {
			continue
		}
		if !includeDeps && p.Module.Path != modPath {
			continue
		}
		if !f.Selects(p.ImportPath, p.relPath(modPath)) {
			continue
		}
		out = append(out, p)
	}
	return out
}

// Weave builds cfg.Patterns with every in-scope function instrumented,
// returning the path of the woven binary. The caller owns the returned
// Result's work directory (call Cleanup).
func Weave(ctx context.Context, cfg Config) (*Result, error) {
	if len(cfg.Patterns) == 0 {
		return nil, fmt.Errorf("weave: no package patterns")
	}
	if cfg.GoBin == "" {
		cfg.GoBin = "go"
	}
	if cfg.Env == nil {
		cfg.Env = os.Environ()
	}
	if cfg.Stderr == nil {
		cfg.Stderr = io.Discard
	}
	if cfg.RuntimeImport == "" {
		cfg.RuntimeImport = RuntimeImport
	}
	if cfg.Dir == "" {
		cfg.Dir = "."
	}
	dir, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	cfg.Dir = dir
	g := &goRunner{bin: cfg.GoBin, dir: cfg.Dir, env: cfg.Env}

	pkgs, err := listPackages(ctx, g, !cfg.NoTypes, cfg.Patterns)
	if err != nil {
		return nil, err
	}
	var mainPkg *listPkg
	for _, p := range pkgs {
		if p.Error != nil && !p.Standard {
			return nil, fmt.Errorf("weave: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Name == "main" && !p.Standard {
			if mainPkg != nil {
				return nil, fmt.Errorf("weave: patterns match more than one main package (%s, %s); weave one binary at a time", mainPkg.ImportPath, p.ImportPath)
			}
			mainPkg = p
		}
	}
	if mainPkg == nil {
		return nil, fmt.Errorf("weave: patterns match no main package")
	}
	if mainPkg.Module == nil {
		return nil, fmt.Errorf("weave: %s is not in a module; the weaver requires module mode", mainPkg.ImportPath)
	}
	mod := mainPkg.Module

	workDir := cfg.WorkDir
	if workDir == "" {
		workDir, err = os.MkdirTemp("", "rprism-weave-*")
		if err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	res := &Result{
		WorkDir:     workDir,
		MainPackage: mainPkg.ImportPath,
		ModulePath:  mod.Path,
		keep:        cfg.KeepWork,
	}
	ok := false
	defer func() {
		if !ok {
			// Failed builds keep the work directory: the rewritten sources
			// are the evidence.
			res.keep = true
		}
	}()

	selected := selectPackages(pkgs, mod.Path, cfg.IncludeDeps, Filter{Match: cfg.Match, Exclude: cfg.Exclude})
	if len(selected) == 0 {
		return res, fmt.Errorf("weave: filters select no packages in module %s", mod.Path)
	}

	binary := cfg.Output
	if binary == "" {
		base := filepath.Base(mainPkg.ImportPath)
		if runtime.GOOS == "windows" {
			base += ".exe"
		}
		binary = filepath.Join(workDir, "bin", base)
	}
	if binary, err = filepath.Abs(binary); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(binary), 0o755); err != nil {
		return nil, err
	}
	res.Binary = binary

	if err := weaveOverlay(ctx, &cfg, g, res, pkgs, selected, mainPkg); err != nil {
		return res, err
	}
	ok = true
	return res, nil
}

// rewriteSelected runs the rewriting pass over the selected packages,
// writing changed files under <work dir>/src and recording them in the
// replace map (original path → rewritten path) the overlay build
// consumes.
func rewriteSelected(cfg *Config, res *Result, pkgs, selected []*listPkg, mainPkg *listPkg, replace map[string]string) error {
	lookup := exportLookup(pkgs)
	if cfg.NoTypes {
		lookup = nil
	}
	srcDir := filepath.Join(res.WorkDir, "src")
	if err := os.MkdirAll(srcDir, 0o755); err != nil {
		return err
	}
	seq := 0
	for _, p := range selected {
		if len(p.CgoFiles) > 0 {
			res.Warnings = append(res.Warnings, fmt.Sprintf("%s: cgo files left unwoven", p.ImportPath))
		}
		in := PackageInput{
			ImportPath:    p.ImportPath,
			MainPkg:       p == mainPkg,
			RuntimeImport: cfg.RuntimeImport,
			Lookup:        lookup,
			ImportMap:     p.ImportMap,
			LinePragmas:   true,
		}
		for _, f := range p.absGoFiles() {
			src, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			in.Files = append(in.Files, FileInput{Name: f, Src: src})
		}
		out, err := RewritePackage(in)
		if err != nil {
			return err
		}
		res.Warnings = append(res.Warnings, out.Warnings...)
		wp := WovenPackage{
			ImportPath: p.ImportPath,
			Funcs:      out.Stats.Funcs,
			GoStmts:    out.Stats.GoStmts,
			Typed:      out.Stats.Typed,
		}
		for _, fo := range out.Files {
			if !fo.Changed {
				continue
			}
			wp.Files++
			dst := filepath.Join(srcDir, fmt.Sprintf("%03d_%s", seq, filepath.Base(fo.Name)))
			seq++
			if err := os.WriteFile(dst, fo.Src, 0o644); err != nil {
				return err
			}
			replace[fo.Name] = dst
		}
		res.Packages = append(res.Packages, wp)
	}

	// Filters may exclude the main package from tracing, but never from
	// lifecycle management: without main's Close defer the capture's
	// buffered tail would be lost and every recording would come back
	// empty. Weave just that one defer in.
	if mainExcluded(selected, mainPkg) {
		res.Warnings = append(res.Warnings,
			fmt.Sprintf("%s: excluded by filters; woven for capture finalization only", mainPkg.ImportPath))
		in := PackageInput{
			ImportPath:    mainPkg.ImportPath,
			MainPkg:       true,
			CloseOnly:     true,
			RuntimeImport: cfg.RuntimeImport,
			LinePragmas:   true,
		}
		for _, f := range mainPkg.absGoFiles() {
			src, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			in.Files = append(in.Files, FileInput{Name: f, Src: src})
		}
		out, err := RewritePackage(in)
		if err != nil {
			return err
		}
		for _, fo := range out.Files {
			if !fo.Changed {
				continue
			}
			dst := filepath.Join(srcDir, fmt.Sprintf("%03d_%s", seq, filepath.Base(fo.Name)))
			seq++
			if err := os.WriteFile(dst, fo.Src, 0o644); err != nil {
				return err
			}
			replace[fo.Name] = dst
		}
	}
	return nil
}

// mainExcluded reports whether filters dropped the main package from
// the weave set.
func mainExcluded(selected []*listPkg, mainPkg *listPkg) bool {
	for _, p := range selected {
		if p == mainPkg {
			return false
		}
	}
	return true
}
