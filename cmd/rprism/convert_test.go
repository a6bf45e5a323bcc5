package main

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/trace"
)

func convertFixture() *trace.Trace {
	tr := trace.New("fix")
	for i := 0; i < 25; i++ {
		tr.Append(trace.ThreadID(i%3), fmt.Sprintf("C.m%d/0", i%5),
			trace.Repr{Loc: trace.Loc(i + 1), Class: "C", Seq: i + 1},
			trace.Event{Kind: trace.KindCall, Member: fmt.Sprintf("C.m%d/0", i%5),
				Args: []trace.Repr{trace.PrimRepr("Int", fmt.Sprint(i))}})
	}
	return tr
}

// writeGob saves a trace with encoding/gob, as releases before RSEG
// wrote trace files and corpus segments.
func writeGob(t *testing.T, tr *trace.Trace, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeJSONL saves a trace as JSONL.
func writeJSONL(t *testing.T, tr *trace.Trace, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConvertSingleFile(t *testing.T) {
	tr := convertFixture()
	want := tr.ComputeDigest()
	path := filepath.Join(t.TempDir(), "run.trace")
	writeGob(t, tr, path)
	if _, err := trace.Load(path); err == nil {
		t.Fatal("a gob file loaded outside convert")
	}

	if _, err := convertFile(path, "", trace.RSEGOptions{}); err != nil {
		t.Fatal(err)
	}
	if f, err := trace.SniffFile(path); err != nil || f != trace.FormatRSEG {
		t.Fatalf("after convert file sniffs as %v, %v", f, err)
	}
	got, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.ComputeDigest(); d != want {
		t.Errorf("conversion changed digest: %s, want %s", d, want)
	}

	// Idempotent: a second run skips.
	msg, err := convertFile(path, "", trace.RSEGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "skipped") {
		t.Errorf("second convert did not skip: %q", msg)
	}
}

func TestConvertToSeparateOutput(t *testing.T) {
	tr := convertFixture()
	dir := t.TempDir()
	src := filepath.Join(dir, "run.jsonl")
	dst := filepath.Join(dir, "run.rseg")
	writeJSONL(t, tr, src)
	if _, err := convertFile(src, dst, trace.RSEGOptions{Compress: true}); err != nil {
		t.Fatal(err)
	}
	// Source untouched, destination equivalent.
	if f, _ := trace.SniffFile(src); f != trace.FormatJSONL {
		t.Error("convert -out rewrote the source")
	}
	got, err := trace.Load(dst)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.ComputeDigest(); d != tr.ComputeDigest() {
		t.Errorf("converted copy digest %s, want %s", d, tr.ComputeDigest())
	}
}

func TestConvertCorpusDir(t *testing.T) {
	// A corpus written by an earlier gob-only version: rewrite every
	// segment as gob, check the store refuses it with the migration
	// command, then convert the directory in place and reopen it.
	dir := t.TempDir()
	store, err := corpus.New(dir, corpus.Options{SegmentLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	tr := convertFixture()
	id, created, err := store.Put(tr)
	if err != nil || !created {
		t.Fatalf("Put = %v, %v", created, err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) < 2 {
		t.Fatalf("corpus has %d segments, want several", len(segs))
	}
	for _, p := range segs {
		seg, err := trace.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		writeGob(t, seg, p)
	}
	legacy, err := corpus.New(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legacy.Get(id); err == nil || !strings.Contains(err.Error(), "rprism convert -dir") {
		t.Fatalf("gob corpus read: err = %v, want one naming rprism convert -dir", err)
	}

	if err := convertDir(dir, trace.RSEGOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, p := range segs {
		if f, err := trace.SniffFile(p); err != nil || f != trace.FormatRSEG {
			t.Errorf("segment %s sniffs as %v, %v after convert", p, f, err)
		}
	}

	// Idempotent second run.
	if err := convertDir(dir, trace.RSEGOptions{}); err != nil {
		t.Fatalf("second convert failed: %v", err)
	}

	// The store reopens and serves the trace under its original digest.
	reopened, err := corpus.New(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopened.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.ComputeDigest(); d != id {
		t.Errorf("converted corpus trace digest %s, want %s", d, id)
	}
}

func TestConvertRefusesCorruptInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.seg")
	writeJSONL(t, convertFixture(), path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := convertDir(dir, trace.RSEGOptions{}); err == nil {
		t.Fatal("convert accepted a corrupt segment")
	}
	// The damaged original is left in place, untouched.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(raw)/2 {
		t.Error("convert modified a file it failed to convert")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*rseg-tmp*")); len(tmps) != 0 {
		t.Errorf("convert left temp files behind: %v", tmps)
	}
}

// TestConvertGoldenGob converts the golden gob fixture of the trace
// package's compatibility suite and checks the RSEG result carries the
// pinned canonical digest every other golden encoding loads to.
func TestConvertGoldenGob(t *testing.T) {
	fixtures := filepath.Join("..", "..", "internal", "trace", "testdata")
	raw, err := os.ReadFile(filepath.Join(fixtures, "golden.digest"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(raw))
	out := filepath.Join(t.TempDir(), "golden.rseg")
	msg, err := convertFile(filepath.Join(fixtures, "golden.gob"), out, trace.RSEGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "gob → rseg") {
		t.Errorf("report %q does not name the conversion", msg)
	}
	if f, err := trace.SniffFile(out); err != nil || f != trace.FormatRSEG {
		t.Fatalf("converted file sniffs as %v, %v", f, err)
	}
	got, err := trace.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.ComputeDigest().String(); d != want {
		t.Errorf("converted digest %s, want pinned %s", d, want)
	}
}
