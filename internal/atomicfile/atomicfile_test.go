package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// entries lists the base names in dir.
func entries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestWriteReplacesWholeFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.meta.json")
	if err := os.WriteFile(path, []byte("old content, longer than the new"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "new" {
		t.Fatalf("after Write: %q, %v", got, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("mode %v, want 0644", fi.Mode().Perm())
	}
	if names := entries(t, dir); len(names) != 1 {
		t.Errorf("directory holds %v, want only the target", names)
	}
}

// TestFailedWriteLeavesOldStateAndNoTemp: a rename that fails (here the
// target is a non-empty directory) leaves whatever the path held, and
// the temp file is gone.
func TestFailedWriteLeavesOldStateAndNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "busy")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	inner := filepath.Join(path, "kept")
	if err := os.WriteFile(inner, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, []byte("new")); err == nil {
		t.Fatal("Write over a non-empty directory succeeded")
	}
	if got, err := os.ReadFile(inner); err != nil || string(got) != "old" {
		t.Fatalf("old content after a failed Write: %q, %v", got, err)
	}
	if names := entries(t, dir); len(names) != 1 || names[0] != "busy" {
		t.Errorf("failed Write left %v, want only the old entry", names)
	}

	// A directory that does not exist: nothing is created anywhere.
	if err := Write(filepath.Join(dir, "missing", "f"), []byte("x")); err == nil {
		t.Fatal("Write into a missing directory succeeded")
	}
	if names := entries(t, dir); len(names) != 1 {
		t.Errorf("failed Write left %v", names)
	}
}

func TestIsTempMatchesExactlyTempNames(t *testing.T) {
	dir := t.TempDir()
	for _, base := range []string{"a", "x.meta.json", "ab.000000.seg", "k%2Fy.sketch.json"} {
		for i := 0; i < 3; i++ {
			f, err := createTemp(filepath.Join(dir, base))
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
			if name := filepath.Base(f.Name()); !IsTemp(name) {
				t.Errorf("IsTemp(%q) = false for a temp of %q", name, base)
			}
		}
	}
	for _, name := range []string{
		"a", "x.meta.json", "ab.000000.seg", // targets
		"x.meta.json.tmp", "ab.000000.seg.tmp", // an earlier release's temp names
		".put-123",                    // the blob FS backend's earlier temp names
		".tmp-123", "a.tmp-", "a.tmp", // no target, no suffix
		"a.tmp-12x", "a.tmp-123.seg", "a.tmp--1",
	} {
		if IsTemp(name) {
			t.Errorf("IsTemp(%q) = true", name)
		}
	}
}
