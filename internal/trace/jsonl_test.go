package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// multithreadedTrace builds a trace with forks, per-thread activity, and
// spawn-ancestry stacks — the shape segmented multi-thread runs produce.
func multithreadedTrace() *Trace {
	tr := New("mt")
	main := Repr{Loc: 1, Class: "Main", Seq: 1}
	ancestry := []Frame{{Method: "Main.main/0", Caller: Repr{}, Callee: main}}
	tr.Append(0, "Main.main/0", main, Event{Kind: KindInit, Member: "Main", Target: main})
	tr.Append(0, "Main.main/0", main, Event{Kind: KindFork, Member: "1", Stack: ancestry})
	tr.Append(1, "Main.main/0$spawn1", main, Event{Kind: KindCall,
		Target: Repr{Loc: 2, Class: "Worker", Seq: 1}, Member: "Worker.run/0",
		Args: []Repr{PrimRepr("Int", "7")}})
	tr.Append(0, "Main.main/0", main, Event{Kind: KindFork, Member: "2", Stack: ancestry})
	tr.Append(2, "Main.main/0$spawn2", main, Event{Kind: KindSet,
		Target: Repr{Loc: 2, Class: "Worker", Seq: 1}, Member: "done",
		Args: []Repr{PrimRepr("Bool", "true")}})
	tr.Append(1, "Main.main/0$spawn1", main, Event{Kind: KindEnd, Stack: ancestry})
	tr.Append(2, "Main.main/0$spawn2", main, Event{Kind: KindEnd, Stack: ancestry})
	tr.Append(0, "Main.main/0", main, Event{Kind: KindEnd})
	return tr
}

func TestJSONLRoundTripMultithreaded(t *testing.T) {
	tr := multithreadedTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL("ignored", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "mt" {
		t.Errorf("name = %q, want header name %q", got.Name, "mt")
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip %d entries, want %d", got.Len(), tr.Len())
	}
	for i := range tr.Entries {
		if !reflect.DeepEqual(tr.Entries[i], got.Entries[i]) {
			t.Errorf("entry %d mismatch:\n got %+v\nwant %+v", i, got.Entries[i], tr.Entries[i])
		}
	}
	if !reflect.DeepEqual(got.ThreadIDs(), tr.ThreadIDs()) {
		t.Errorf("thread ids %v, want %v", got.ThreadIDs(), tr.ThreadIDs())
	}
}

func TestJSONLWritesSymbolHeader(t *testing.T) {
	tr := multithreadedTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(buf.String(), "\n")
	var hdr jsonHeader
	if err := json.Unmarshal([]byte(first), &hdr); err != nil {
		t.Fatalf("first line is not a header: %v", err)
	}
	if hdr.Format != jsonlFormat || hdr.Version != jsonlVersion {
		t.Errorf("header = %+v", hdr)
	}
	if len(hdr.Symbols) == 0 {
		t.Fatal("header carries no symbols")
	}
	seen := make(map[string]bool)
	for _, s := range hdr.Symbols {
		if s == "" {
			t.Error("empty string must not be in the symbol block")
		}
		if seen[s] {
			t.Errorf("symbol %q duplicated in header", s)
		}
		seen[s] = true
	}
	if !seen["Main.main/0"] || !seen["Worker.run/0"] {
		t.Errorf("expected method symbols missing from header: %v", hdr.Symbols)
	}
	// Entry lines must not repeat the interned strings.
	rest := buf.String()[len(first)+1:]
	if strings.Contains(rest, "Main.main/0") {
		t.Error("entry lines still inline symbol strings")
	}
}

// TestJSONLRefusesLegacyV1: a headerless (version 1) stream of earlier
// releases is refused with a *FormatError naming the migration command;
// cmd/rprism's TestConvertReadsLegacyV1 reads it.
func TestJSONLRefusesLegacyV1(t *testing.T) {
	legacy := `{"eid":0,"tid":1,"method":"w","kind":"end"}` + "\n"
	_, err := ReadJSONL("legacy", strings.NewReader(legacy))
	var fe *FormatError
	if !errors.As(err, &fe) || !strings.Contains(fe.Msg, "rprism convert -trace FILE") {
		t.Fatalf("ReadJSONL(v1) = %v, want a *FormatError naming rprism convert -trace FILE", err)
	}
}

func TestJSONLRejectsBadSymbolRef(t *testing.T) {
	in := `{"format":"rprism-trace","version":2,"name":"x","symbols":["a"]}` + "\n" +
		`{"eid":0,"tid":0,"kind":"call","mem":7}` + "\n"
	if _, err := ReadJSONL("x", strings.NewReader(in)); err == nil {
		t.Error("out-of-range symbol ref must be rejected")
	}
}

func TestJSONLRejectsUnsupportedVersion(t *testing.T) {
	in := `{"format":"rprism-trace","version":99,"name":"x","symbols":[]}` + "\n"
	if _, err := ReadJSONL("x", strings.NewReader(in)); err == nil {
		t.Error("unknown version must be rejected")
	}
}

func TestJSONLEmptyStream(t *testing.T) {
	got, err := ReadJSONL("empty", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Name != "empty" {
		t.Errorf("empty stream loaded as %q with %d entries", got.Name, got.Len())
	}
}
