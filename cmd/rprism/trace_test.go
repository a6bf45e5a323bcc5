package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceRefusesStrayArgument requires `rprism trace` to refuse a
// positional argument, naming it and pointing to -args, instead of
// recording a run without it.
func TestTraceRefusesStrayArgument(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.mj")
	prog := `class Main { void main() { Sys.print(Sys.parseInt(Sys.arg(0))); } }`
	if err := os.WriteFile(src, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "x.trace")
	err := cmdTrace([]string{"-src", src, "-out", out, "7"})
	if err == nil || !strings.Contains(err.Error(), `"7"`) || !strings.Contains(err.Error(), "-args") {
		t.Fatalf("err = %v, want a refusal naming \"7\" and -args", err)
	}
	if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
		t.Errorf("a refused run wrote %s (stat err %v)", out, statErr)
	}
	// The same run with -args records.
	if err := cmdTrace([]string{"-src", src, "-out", out, "-args", "7"}); err != nil {
		t.Fatalf("-args 7: %v", err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}
}
