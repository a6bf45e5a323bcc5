package main

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// legacyCorpus lays out dir as the segmenting store of earlier releases
// left a trace of several segments: segments written by
// trace.NewSegmentWriter under the digest, optionally rewritten as gob,
// and a sidecar that counts them. It returns the digest and the
// segment count.
func legacyCorpus(t *testing.T, dir string, gob bool) (trace.Digest, int) {
	t.Helper()
	tr := convertFixture()
	id := tr.ComputeDigest()
	w, err := trace.NewSegmentWriter(dir, id.String(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Entries {
		e := &tr.Entries[i]
		if _, err := w.Append(e.TID, e.Method, e.Self, e.Event); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, id.String()+".*.seg"))
	n := len(segs)
	if n < 2 {
		t.Fatalf("legacy corpus has %d segments, want several", n)
	}
	if gob {
		for i := 0; i < n; i++ {
			p := trace.SegmentPath(dir, id.String(), i)
			seg, err := trace.Load(p)
			if err != nil {
				t.Fatal(err)
			}
			writeGob(t, seg, p)
		}
	}
	meta := fmt.Sprintf(`{"id":%q,"name":"fix","entries":%d,"segments":%d}`, id, tr.Len(), n)
	if err := os.WriteFile(filepath.Join(dir, id.String()+".meta.json"), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}
	return id, n
}

// snapshot maps every file under dir to its content.
func snapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(raw)
	}
	return out
}

// TestConvertCorpusDir: a corpus of earlier releases whose trace is
// split into segments (RSEG or gob) is refused by the store with the
// migration command; convert -dir merges it into segment 0, the store
// then serves it under its original digest, and a second run changes
// nothing. A merge cut short after segment 0 was rewritten, with the
// sidecar still counting every segment, converts the same way.
func TestConvertCorpusDir(t *testing.T) {
	for _, tc := range []struct {
		name     string
		gob      bool
		cutShort bool
	}{
		{"rseg segments", false, false},
		{"gob segments", true, false},
		{"merge cut after segment 0", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			id, n := legacyCorpus(t, dir, tc.gob)
			if _, err := corpus.New(dir, corpus.Options{}); err == nil || !strings.Contains(err.Error(), "rprism convert -dir") {
				t.Fatalf("multi-segment corpus open: err = %v, want one naming rprism convert -dir", err)
			}
			if tc.cutShort {
				whole := convertFixture()
				whole.Name = "fix"
				if err := whole.Save(trace.SegmentPath(dir, id.String(), 0)); err != nil {
					t.Fatal(err)
				}
			}

			if err := convertDir(dir, trace.RSEGOptions{}); err != nil {
				t.Fatal(err)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, id.String()+".00000[1-9].seg")); len(left) != 0 {
				t.Errorf("segments beyond 0 left after the merge: %v (of %d)", left, n)
			}
			seg0 := trace.SegmentPath(dir, id.String(), 0)
			if f, err := trace.SniffFile(seg0); err != nil || f != trace.FormatRSEG {
				t.Errorf("segment 0 sniffs as %v, %v after convert", f, err)
			}

			before := snapshot(t, dir)
			if err := convertDir(dir, trace.RSEGOptions{}); err != nil {
				t.Fatalf("second convert failed: %v", err)
			}
			if after := snapshot(t, dir); !reflect.DeepEqual(before, after) {
				t.Error("second convert changed the directory")
			}

			reopened, err := corpus.New(dir, corpus.Options{VerifyOnLoad: true})
			if err != nil {
				t.Fatal(err)
			}
			m, err := reopened.Meta(id)
			if err != nil || m.Segments != 1 || m.Name != "fix" {
				t.Fatalf("Meta = %+v, %v", m, err)
			}
			got, err := reopened.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if d := got.ComputeDigest(); d != id || got.Name != "fix" {
				t.Errorf("converted corpus trace %q digest %s, want %s", got.Name, d, id)
			}
		})
	}
}

// TestConvertSingleSegmentGobCorpus: a gob corpus of one segment per
// trace opens (its sidecar is valid) but its trace reads fail with the
// migration command until convert -dir rewrites the segment.
func TestConvertSingleSegmentGobCorpus(t *testing.T) {
	dir := t.TempDir()
	store, err := corpus.New(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, created, err := store.Put(convertFixture())
	if err != nil || !created {
		t.Fatalf("Put = %v, %v", created, err)
	}
	seg0 := trace.SegmentPath(dir, id.String(), 0)
	seg, err := trace.Load(seg0)
	if err != nil {
		t.Fatal(err)
	}
	writeGob(t, seg, seg0)
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
	reopened, err := corpus.New(dir, corpus.Options{VerifyOnLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := reopened.Get(id); err != nil || got.ComputeDigest() != id {
		t.Fatalf("converted trace: %v", err)
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
	if names := snapshot(t, dir); len(names) != 1 {
		t.Errorf("convert left files behind: %v", names)
	}
}

// TestConvertGoldenGob converts the golden gob fixture of the trace
// package's compatibility suite and checks the RSEG result carries the
// pinned canonical digest every other golden encoding loads to.
func TestConvertGoldenGob(t *testing.T) { convertGolden(t, "golden.gob", "gob → rseg") }

// TestConvertGoldenV1JSONL does the same for the headerless JSONL
// fixture, which the loaders refuse.
func TestConvertGoldenV1JSONL(t *testing.T) {
	convertGolden(t, "golden.v1.jsonl", "jsonl v1 → rseg")
}

func convertGolden(t *testing.T, fixture, report string) {
	t.Helper()
	fixtures := filepath.Join("..", "..", "internal", "trace", "testdata")
	raw, err := os.ReadFile(filepath.Join(fixtures, "golden.digest"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(raw))
	out := filepath.Join(t.TempDir(), "golden.rseg")
	msg, err := convertFile(filepath.Join(fixtures, fixture), out, trace.RSEGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, report) {
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

// TestConvertReadsLegacyV1: the headerless JSONL of earlier releases
// (one self-contained entry per line, all strings inlined) is refused
// by the loaders and read by convert, its strings restored and interned
// into the same id space a current load uses.
func TestConvertReadsLegacyV1(t *testing.T) {
	legacy := strings.Join([]string{
		`{"eid":0,"tid":0,"method":"Main.main/0","self":{"Loc":1,"Class":"Main","Hash":0,"Str":"","Seq":1},"kind":"init","target":{"Loc":2,"Class":"C","Hash":9,"Str":"C:[]","Seq":1},"member":"C","args":[{"Loc":0,"Class":"Int","Hash":3,"Str":"Int:[32]","Seq":0}]}`,
		`{"eid":1,"tid":0,"method":"Main.main/0","kind":"fork","member":"1","stack":[{"Method":"Main.main/0","Caller":{"Loc":0,"Class":"","Hash":0,"Str":"","Seq":0},"Callee":{"Loc":1,"Class":"Main","Hash":0,"Str":"","Seq":1}}]}`,
		`{"eid":2,"tid":1,"method":"w","kind":"end"}`,
	}, "\n") + "\n"
	path := filepath.Join(t.TempDir(), "legacy.jsonl")
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Load(path); err == nil || !strings.Contains(err.Error(), "rprism convert -trace") {
		t.Fatalf("Load(v1) = %v, want a refusal naming rprism convert -trace", err)
	}
	format, err := sourceFormat(path)
	if err != nil || format != "jsonl v1" {
		t.Fatalf("sourceFormat = %q, %v, want jsonl v1", format, err)
	}
	got, err := loadForConvert(path, format)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("loaded %d entries, want 3", got.Len())
	}
	e0 := got.Entries[0]
	if e0.Method != "Main.main/0" || e0.Event.Member != "C" || e0.Event.Target.Class != "C" {
		t.Errorf("v1 strings not restored: %+v", e0)
	}
	if e0.MethodSym == trace.NoSym || e0.Event.Target.ClassSym == trace.NoSym {
		t.Error("v1 entries must be interned on load")
	}
	if got.Entries[1].Event.Stack[0].MethodSym == trace.NoSym {
		t.Error("v1 stack frames must be interned on load")
	}
	if e0.MethodSym != trace.Intern("Main.main/0") {
		t.Error("v1 load interned into a different id space")
	}

	// In place, the file becomes RSEG that loads to the same digest.
	if _, err := convertFile(path, "", trace.RSEGOptions{}); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.ComputeDigest() != got.ComputeDigest() {
		t.Errorf("in-place convert changed the digest")
	}
}
