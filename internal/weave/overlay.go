package weave

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// overlayJSON is the `go build -overlay` file format.
type overlayJSON struct {
	Replace map[string]string
}

// weaveOverlay builds the woven binary: rewritten files land in the
// work directory and an overlay file maps the originals onto them, so
// the target tree is never touched. When the target module does not
// already depend on repro, its go.mod is overlaid too, gaining a
// `require repro v0.0.0` plus a local `replace` pointing at the runtime
// checkout.
func weaveOverlay(ctx context.Context, cfg *Config, g *goRunner, res *Result, pkgs, selected []*listPkg, mainPkg *listPkg) error {
	replace := map[string]string{}
	if err := rewriteSelected(cfg, res, pkgs, selected, mainPkg, replace); err != nil {
		return err
	}

	if mainPkg.Module.Path != "repro" && !moduleResolvesRepro(ctx, g) {
		runtimeDir, err := resolveRuntimeDir(ctx, cfg, g, mainPkg.Module)
		if err != nil {
			return err
		}
		modFile := filepath.Join(mainPkg.Module.Dir, "go.mod")
		orig, err := os.ReadFile(modFile)
		if err != nil {
			return fmt.Errorf("weave: reading target go.mod: %w", err)
		}
		grafted := graftRuntimeRequire(orig, runtimeDir)
		dst := filepath.Join(res.WorkDir, "go.mod")
		if err := os.WriteFile(dst, grafted, 0o644); err != nil {
			return err
		}
		replace[modFile] = dst
	}

	overlayPath := filepath.Join(res.WorkDir, "overlay.json")
	data, err := json.MarshalIndent(overlayJSON{Replace: replace}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(overlayPath, data, 0o644); err != nil {
		return err
	}

	args := []string{"build", "-overlay", overlayPath, "-o", res.Binary}
	args = append(args, cfg.BuildFlags...)
	args = append(args, cfg.Patterns...)
	fmt.Fprintf(cfg.Stderr, "rprism weave: building %s (%d packages woven)\n", mainPkg.ImportPath, len(selected))
	if _, err := g.run(ctx, args...); err != nil {
		return fmt.Errorf("weave: building woven binary: %w\n(rewritten sources kept in %s)", err, res.WorkDir)
	}
	return nil
}

// moduleResolvesRepro reports whether the target module already resolves
// a module named repro (already requires it, or IS it) — in that case
// its go.mod is left alone.
func moduleResolvesRepro(ctx context.Context, g *goRunner) bool {
	out, err := g.run(ctx, "list", "-m", "-f", "{{.Dir}}", "repro")
	return err == nil && strings.TrimSpace(string(out)) != ""
}

// graftRuntimeRequire appends the runtime requirement to a go.mod. The
// version is a placeholder — the replace directive pins resolution to
// the local checkout, so no fetch ever happens.
func graftRuntimeRequire(gomod []byte, runtimeDir string) []byte {
	var b strings.Builder
	b.Write(gomod)
	if len(gomod) > 0 && gomod[len(gomod)-1] != '\n' {
		b.WriteByte('\n')
	}
	b.WriteString("\nrequire repro v0.0.0\n\nreplace repro => ")
	b.WriteString(runtimeDir)
	b.WriteByte('\n')
	return []byte(b.String())
}
