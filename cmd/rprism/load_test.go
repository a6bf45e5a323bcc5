package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestLoadTraceFileErrors(t *testing.T) {
	dir := t.TempDir()

	corrupt := filepath.Join(dir, "corrupt.trace")
	if err := os.WriteFile(corrupt, []byte("this is not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.trace")
	good := trace.New("good")
	good.Append(1, "M.m/0", trace.Repr{}, trace.Event{Kind: trace.KindCall, Member: "M.m/0"})
	if err := good.Save(truncated); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(truncated)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncated, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "legacy.trace")
	writeGob(t, good, legacy)
	v1 := filepath.Join(dir, "v1.jsonl")
	if err := os.WriteFile(v1, []byte(`{"eid":0,"tid":1,"method":"w","kind":"end"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	valid := filepath.Join(dir, "valid.trace")
	if err := good.Save(valid); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, flag, path string
		wantErr          []string // all must appear in the message
	}{
		{"missing file", "left", filepath.Join(dir, "nope.trace"),
			[]string{"-left", "does not exist", "rprism trace"}},
		{"corrupt file", "right", corrupt,
			[]string{"-right", "not a valid trace file", corrupt}},
		// A truncated RSEG file is structurally detected: the message
		// names the file, the format, and the byte offset of the damage.
		{"truncated file", "trace", truncated,
			[]string{"-trace", "damaged", truncated, "rseg", "byte offset"}},
		// A gob file of an earlier release names the migration command.
		{"gob file", "left", legacy,
			[]string{"-left", "not a valid trace file", "rprism convert -trace " + legacy}},
		// So does the headerless JSONL of earlier releases.
		{"jsonl v1 file", "right", v1,
			[]string{"-right", "not a valid trace file", "rprism convert -trace " + v1}},
		{"directory", "left", dir,
			[]string{"-left", "directory"}},
		{"valid file", "left", valid, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := loadTraceFile(tc.flag, tc.path)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if tr.Len() != 1 {
					t.Fatalf("loaded %d entries", tr.Len())
				}
				return
			}
			if err != nil && tr != nil {
				t.Error("returned both a trace and an error")
			}
			if err == nil {
				t.Fatal("expected an error")
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}
