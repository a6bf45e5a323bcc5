package weave

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// goRunner runs the go tool for the weaver: fixed working directory and
// environment, stderr captured so failures carry the tool's diagnostics.
type goRunner struct {
	bin string
	dir string
	env []string
}

func (g *goRunner) run(ctx context.Context, args ...string) ([]byte, error) {
	cmd := exec.CommandContext(ctx, g.bin, args...)
	cmd.Dir = g.dir
	cmd.Env = g.env
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(errb.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("go %s: %s", args[0], msg)
	}
	return out.Bytes(), nil
}

// listModule describes the owning module of a listed package.
type listModule struct {
	Path string
	Dir  string
	Main bool
}

// listPkg is the subset of `go list -json` the weaver consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Standard   bool
	Export     string // gc export data, when listed with -export
	Module     *listModule
	GoFiles    []string
	CgoFiles   []string
	ImportMap  map[string]string
	Incomplete bool
	Error      *struct{ Err string }
}

func (p *listPkg) absGoFiles() []string {
	out := make([]string, len(p.GoFiles))
	for i, f := range p.GoFiles {
		out[i] = filepath.Join(p.Dir, f)
	}
	return out
}

// relPath returns the module-relative import path for filter matching:
// "." for the module root package, "" when the package is outside mod.
func (p *listPkg) relPath(modPath string) string {
	if p.Module == nil || p.Module.Path != modPath {
		return ""
	}
	if p.ImportPath == modPath {
		return "."
	}
	return strings.TrimPrefix(p.ImportPath, modPath+"/")
}

// listPackages runs `go list -deps -export -json` over patterns, so each
// dependency's gc export data is available for the typed go-statement
// hoisting.
func listPackages(ctx context.Context, g *goRunner, patterns []string) ([]*listPkg, error) {
	args := []string{"list", "-deps", "-export", "-json=ImportPath,Name,Dir,Standard,Export,Module,GoFiles,CgoFiles,ImportMap,Incomplete,Error"}
	args = append(args, patterns...)
	out, err := g.run(ctx, args...)
	if err != nil {
		return nil, err
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("weave: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportLookup builds the importer lookup over the listed packages'
// export data, keyed by import path.
func exportLookup(pkgs []*listPkg) func(path string) (io.ReadCloser, error) {
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("weave: no export data for %q", path)
		}
		return os.Open(f)
	}
}

// envValue extracts KEY from an environ-shaped list (last wins).
func envValue(env []string, key string) string {
	v := ""
	for _, kv := range env {
		if k, val, ok := strings.Cut(kv, "="); ok && k == key {
			v = val
		}
	}
	return v
}

// EnvRuntimeSrc names the rprism source checkout for weaving targets
// that do not already depend on module repro.
const EnvRuntimeSrc = "RPRISM_WEAVE_SRC"

// resolveRuntimeDir locates the repro module source the woven binary
// links against, trying in order: the target module itself (when it IS
// repro), the explicit config, the RPRISM_WEAVE_SRC environment
// variable, the target's own module graph (it already requires repro),
// and finally the module containing the weaver's process working
// directory.
func resolveRuntimeDir(ctx context.Context, cfg *Config, g *goRunner, mod *listModule) (string, error) {
	if mod != nil && mod.Path == "repro" {
		return mod.Dir, nil
	}
	if cfg.RuntimeDir != "" {
		return filepath.Abs(cfg.RuntimeDir)
	}
	if v := envValue(cfg.Env, EnvRuntimeSrc); v != "" {
		return filepath.Abs(v)
	}
	if out, err := g.run(ctx, "list", "-m", "-f", "{{.Dir}}", "repro"); err == nil {
		if dir := strings.TrimSpace(string(out)); dir != "" {
			return dir, nil
		}
	}
	if wd, err := os.Getwd(); err == nil {
		here := &goRunner{bin: g.bin, dir: wd, env: g.env}
		if out, err := here.run(ctx, "list", "-m", "-f", "{{.Path}}\t{{.Dir}}"); err == nil {
			if path, dir, ok := strings.Cut(strings.TrimSpace(string(out)), "\t"); ok && path == "repro" {
				return dir, nil
			}
		}
	}
	return "", fmt.Errorf("weave: cannot locate the rprism runtime source; pass -weave-src or set %s to the repro module checkout", EnvRuntimeSrc)
}
