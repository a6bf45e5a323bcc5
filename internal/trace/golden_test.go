// Package trace_test holds the cross-format compatibility suite: golden
// fixture files in every on-disk encoding the project has ever shipped
// (JSONL v1, JSONL v2, gob, RSEG plain and compressed), all encoding the
// same fixture trace. Every encoding the loaders read must load to an
// identical canonical digest and an equivalent view web; the retired
// gob and JSONL v1 encodings must be refused with the migration command. It lives in
// the external test package so it can drive the views and diff layers
// the internal package cannot import.
package trace_test

import (
	"bufio"
	"encoding/gob"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/views"
)

var update = flag.Bool("update", false, "regenerate the golden format fixtures under testdata/")

// fixtureTrace is the deterministic trace every golden file encodes: a
// three-thread run with forks, calls, field traffic, spawn-ancestry
// stacks, and value representations — one of everything the formats must
// carry.
func fixtureTrace() *trace.Trace {
	tr := trace.New("golden")
	main := trace.Repr{Loc: 1, Class: "Main", Seq: 1}
	ancestry := []trace.Frame{{Method: "Main.main/0", Callee: main}}
	tr.Append(0, "Main.main/0", main,
		trace.Event{Kind: trace.KindInit, Member: "Main", Target: main})
	tr.Append(0, "Main.main/0", main,
		trace.Event{Kind: trace.KindFork, Member: "1", Stack: ancestry})
	tr.Append(0, "Main.main/0", main,
		trace.Event{Kind: trace.KindFork, Member: "2", Stack: ancestry})
	for i := 0; i < 6; i++ {
		tid := trace.ThreadID(1 + i%2)
		worker := trace.Repr{Loc: trace.Loc(10 + tid), Class: "Worker", Seq: int(tid)}
		tr.Append(tid, fmt.Sprintf("Worker.run/%d", tid), worker,
			trace.Event{Kind: trace.KindCall, Member: fmt.Sprintf("Worker.step%d/1", i/2),
				Target: worker,
				Args:   []trace.Repr{trace.PrimRepr("Int", fmt.Sprint(i*i))}})
		tr.Append(tid, fmt.Sprintf("Worker.run/%d", tid), worker,
			trace.Event{Kind: trace.KindSet, Member: "count", Target: worker,
				Args: []trace.Repr{trace.PrimRepr("Int", fmt.Sprint(i))}})
	}
	tr.Append(1, "Worker.run/1", trace.Repr{Loc: 11, Class: "Worker", Seq: 1},
		trace.Event{Kind: trace.KindEnd, Stack: ancestry})
	tr.Append(2, "Worker.run/2", trace.Repr{Loc: 12, Class: "Worker", Seq: 2},
		trace.Event{Kind: trace.KindEnd, Stack: ancestry})
	tr.Append(0, "Main.main/0", main, trace.Event{Kind: trace.KindEnd})
	return tr
}

// goldenFixtures maps each loadable golden file to its writer.
func goldenFixtures() map[string]func(path string, tr *trace.Trace) error {
	return map[string]func(string, *trace.Trace) error{
		"golden.v2.jsonl": saveWith((*trace.Trace).WriteJSONL),
		"golden.rseg":     saveWith((*trace.Trace).WriteRSEG),
		"golden.rsegz": saveWith(func(tr *trace.Trace, w io.Writer) error {
			return tr.WriteRSEGOpts(w, trace.RSEGOptions{Compress: true})
		}),
	}
}

// retiredFixtures maps each golden file in an encoding the loaders no
// longer read to its writer: the gob files of releases before RSEG and
// the headerless JSONL of the original writer, which only `rprism
// convert` migrates. No current API emits golden.v1.jsonl, so the
// update path reproduces it field by field.
func retiredFixtures() map[string]func(path string, tr *trace.Trace) error {
	return map[string]func(string, *trace.Trace) error{
		"golden.gob": saveWith(func(tr *trace.Trace, w io.Writer) error {
			return gob.NewEncoder(w).Encode(tr)
		}),
		"golden.v1.jsonl": writeLegacyV1,
	}
}

// saveWith adapts a stream encoder to a file writer.
func saveWith(encode func(*trace.Trace, io.Writer) error) func(string, *trace.Trace) error {
	return func(path string, tr *trace.Trace) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := encode(tr, f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}

// legacy v1 line shape: self-contained entries, strings inlined, no
// header. Mirrors the original writer closely enough that the v1 reader
// of `rprism convert` exercises its real decode path.
type v1Repr struct {
	Loc   trace.Loc `json:"Loc"`
	Class string    `json:"Class"`
	Hash  uint64    `json:"Hash"`
	Str   string    `json:"Str"`
	Seq   int       `json:"Seq"`
}

type v1Frame struct {
	Method string `json:"Method"`
	Caller v1Repr `json:"Caller"`
	Callee v1Repr `json:"Callee"`
}

type v1Entry struct {
	EID    trace.EntryID  `json:"eid"`
	TID    trace.ThreadID `json:"tid"`
	Method string         `json:"method,omitempty"`
	Self   *v1Repr        `json:"self,omitempty"`
	Kind   string         `json:"kind"`
	Target *v1Repr        `json:"target,omitempty"`
	Member string         `json:"member,omitempty"`
	Args   []v1Repr       `json:"args,omitempty"`
	Stack  []v1Frame      `json:"stack,omitempty"`
}

func writeLegacyV1(path string, tr *trace.Trace) error {
	repr := func(r trace.Repr) v1Repr {
		return v1Repr{Loc: r.Loc, Class: r.Class, Hash: r.Hash, Str: r.Str, Seq: r.Seq}
	}
	reprp := func(r trace.Repr) *v1Repr {
		if r.IsZero() {
			return nil
		}
		v := repr(r)
		return &v
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, e := range tr.Entries {
		je := v1Entry{
			EID: e.EID, TID: e.TID, Method: e.Method,
			Self: reprp(e.Self), Kind: e.Event.Kind.String(),
			Target: reprp(e.Event.Target), Member: e.Event.Member,
		}
		for _, a := range e.Event.Args {
			je.Args = append(je.Args, repr(a))
		}
		for _, fr := range e.Event.Stack {
			je.Stack = append(je.Stack, v1Frame{Method: fr.Method,
				Caller: repr(fr.Caller), Callee: repr(fr.Callee)})
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TestGoldenFormatCompat is the cross-version compatibility gate (run in
// CI's format-compat job): every golden fixture, whatever its encoding
// era, must load to the pinned canonical digest and build a view web
// equivalent to the in-memory fixture's; every retired fixture must be
// refused with the migration command. Run with -update after an
// intentional format change to regenerate the files — the v1/v2/gob
// fixtures must never change once released, so -update failing to
// reproduce the pinned digest is itself a compatibility break.
func TestGoldenFormatCompat(t *testing.T) {
	tr := fixtureTrace()
	digestPath := filepath.Join("testdata", "golden.digest")

	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		for _, fixtures := range []map[string]func(string, *trace.Trace) error{goldenFixtures(), retiredFixtures()} {
			for name, write := range fixtures {
				if err := write(filepath.Join("testdata", name), tr); err != nil {
					t.Fatalf("regenerate %s: %v", name, err)
				}
			}
		}
		if err := os.WriteFile(digestPath, []byte(tr.ComputeDigest().String()+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	raw, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("read pinned digest (run with -update to generate): %v", err)
	}
	want, err := trace.ParseDigest(string(raw[:len(raw)-1]))
	if err != nil {
		t.Fatalf("pinned digest malformed: %v", err)
	}
	if got := tr.ComputeDigest(); got != want {
		t.Fatalf("fixture trace digest %s no longer matches pinned %s: the canonical encoding changed", got, want)
	}

	web := views.Build(tr)
	for name := range goldenFixtures() {
		t.Run(name, func(t *testing.T) {
			got, err := trace.Load(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			if d := got.ComputeDigest(); d != want {
				t.Errorf("loaded digest %s, want pinned %s", d, want)
			}
			if err := views.Equivalent(web, views.Build(got)); err != nil {
				t.Errorf("view web differs from fixture: %v", err)
			}
		})
	}
	// Retired encodings are refused with the migration command; that
	// they still convert to the pinned digest is cmd/rprism's
	// TestConvertGoldenGob and TestConvertGoldenV1JSONL.
	for name := range retiredFixtures() {
		t.Run(name, func(t *testing.T) {
			_, err := trace.Load(filepath.Join("testdata", name))
			var fe *trace.FormatError
			if !errors.As(err, &fe) || !strings.Contains(fe.Msg, "rprism convert") {
				t.Fatalf("Load = %v, want a *FormatError naming rprism convert", err)
			}
		})
	}
}

// goldenClassHashes are trace.EventClassHash of the fixture's entries,
// computed by the similarity index's own class hash before it moved to
// package trace. Persisted sketches count these values, so a change
// here silently invalidates every .sketch.json sidecar in a corpus.
var goldenClassHashes = []uint64{
	0x9752a8e5aa02bc9d, 0x93434e27136fb1f9, 0x93434e27136fb1f9, 0x5dba4a7497487f7d,
	0xe0ba7dc9f832001f, 0x9d961adf3b0e1c96, 0x4237a86bf6f7e5a7, 0xfea60ca5e28ef1dd,
	0x0bf980ca2520db51, 0xf579ac19eb91e657, 0x8da49caeb26052fd, 0xcd37b91067a90bc3,
	0xd019c42c3b0460a5, 0xb51673af20150c1c, 0x8808a2e7bc0da961, 0xe032156dffa4b0f3,
	0xe032156dffa4b0f3, 0x6f9cbb08480da229,
}

// TestGoldenEventClassHash pins the =e class key of every entry of every
// loadable golden fixture.
func TestGoldenEventClassHash(t *testing.T) {
	for name := range goldenFixtures() {
		t.Run(name, func(t *testing.T) {
			tr, err := trace.Load(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			if tr.Len() != len(goldenClassHashes) {
				t.Fatalf("%d entries, want %d", tr.Len(), len(goldenClassHashes))
			}
			for i := range tr.Entries {
				if got := trace.EventClassHash(&tr.Entries[i]); got != goldenClassHashes[i] {
					t.Errorf("entry %d: class hash %#016x, want %#016x", i, got, goldenClassHashes[i])
				}
			}
		})
	}
}

// TestRSEGRoundTripProperty pins the migration guarantee over varied
// trace shapes: writing any trace as RSEG and loading it back yields an
// identical canonical digest and an equivalent view web — the property
// `rprism convert` relies on when it replaces JSONL/gob files in place.
func TestRSEGRoundTripProperty(t *testing.T) {
	empty := trace.New("empty")
	single := trace.New("single")
	single.Append(0, "M.m/0", trace.Repr{},
		trace.Event{Kind: trace.KindCall, Member: "M.m/0"})
	for _, tr := range []*trace.Trace{fixtureTrace(), empty, single} {
		for _, compress := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/compress=%v", tr.Name, compress), func(t *testing.T) {
				dir := t.TempDir()
				jsonl := filepath.Join(dir, "t.jsonl")
				if err := saveWith((*trace.Trace).WriteJSONL)(jsonl, tr); err != nil {
					t.Fatal(err)
				}
				loaded, err := trace.Load(jsonl)
				if err != nil {
					t.Fatal(err)
				}
				rseg := filepath.Join(dir, "t.rseg")
				f, err := os.Create(rseg)
				if err != nil {
					t.Fatal(err)
				}
				if err := loaded.WriteRSEGOpts(f, trace.RSEGOptions{Compress: compress}); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				got, err := trace.Load(rseg)
				if err != nil {
					t.Fatal(err)
				}
				if d1, d2 := tr.ComputeDigest(), got.ComputeDigest(); d1 != d2 {
					t.Errorf("JSONL→RSEG→load digest %s, want %s", d2, d1)
				}
				if err := views.Equivalent(views.Build(tr), views.Build(got)); err != nil {
					t.Errorf("JSONL→RSEG→load web differs: %v", err)
				}
			})
		}
	}
}
