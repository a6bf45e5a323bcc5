package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadAny throws arbitrary bytes at the upload decode path, which
// sniffs the format and dispatches to the RSEG or JSONL decoder. It is
// seeded with the golden fixtures of every encoding ever shipped, gob
// included. The contract is total: any input either decodes to a trace
// whose digest can be computed or fails with a *FormatError — no
// panics, no other error type.
func FuzzReadAny(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden.*"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("golden fixtures: %v (%d found)", err, len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte(`{"`))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadAny("fuzz", bytes.NewReader(data))
		if err != nil {
			requireFormatError(t, err)
			return
		}
		tr.ComputeDigest()
	})
}

// FuzzRSEGDecode throws arbitrary bytes at the RSEG decode: structural
// parse, symbol block, every thread column, the scatter into entry-id
// order. The contract under fuzzing is total: any input either decodes
// to a trace whose digest can be computed or fails with a *FormatError —
// no panics, no unbounded allocations, no other error type.
func FuzzRSEGDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("RSEG"))
	f.Add(rsegImage(f, New("empty"), RSEGOptions{}))
	f.Add(rsegImage(f, multithreadedTrace(), RSEGOptions{}))
	f.Add(rsegImage(f, multithreadedTrace(), RSEGOptions{Compress: true}))
	f.Add(rsegImage(f, manyThreadTrace(5, 7), RSEGOptions{}))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := decodeRSEG(data, "fuzz")
		if err != nil {
			requireFormatError(t, err)
			return
		}
		tr.ComputeDigest()
	})
}

func requireFormatError(t *testing.T, err error) {
	t.Helper()
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("decode failed with %T (%v), want *FormatError", err, err)
	}
}

// FuzzWireDecoder drives the streaming segment-frame decoder with
// arbitrary JSON payloads — the bytes a hostile or broken capture client
// could POST at rprism-serve. Decoding may fail, but must never panic.
func FuzzWireDecoder(f *testing.F) {
	var enc WireEncoder
	tr := multithreadedTrace()
	for i := 0; i+4 <= tr.Len(); i += 4 {
		if raw, err := json.Marshal(enc.Segment(tr.Entries[i : i+4])); err == nil {
			f.Add(raw)
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"symbols":["a"],"entries":[{"eid":0,"tid":0,"kind":"call","m":1}]}`))
	f.Add([]byte(`{"entries":[{"kind":"call","m":99}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var seg WireSegment
		if err := json.Unmarshal(data, &seg); err != nil {
			return
		}
		var dec WireDecoder
		if _, err := dec.Segment(seg); err != nil {
			return // malformed frames may error; they must not panic
		}
	})
}

// FuzzEventClassHash checks the invariant the diff kernels and the
// similarity index rest on: EventEqual(a, b) implies equal
// EventClassHash. Entries decode over a four-word vocabulary, so pairs
// are often =e, and cover every kind: EOF entries with junk in the
// fields =e ignores, fork and end stacks, stacks on kinds that ignore
// them, both sides interned (unequal strings make unequal Syms), and
// either side left at NoSym, where EventEqual falls back to strings.
func FuzzEventClassHash(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 0, 1, 0, 2, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 2, 1, 1, 1, 1, 1, 1, 0})
	fork := []byte{0, 1, 1, 1, 1, 1, 1, 6, 1, 1, 1, 1, 1, 1, 0, 2, 2, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 1}
	f.Add(append(append([]byte{}, fork...), fork...))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, rest := fuzzEntry(data)
		b, _ := fuzzEntry(rest)
		if EventEqual(&a, &b) && EventClassHash(&a) != EventClassHash(&b) {
			t.Fatalf("=e entries hash apart:\n%v\n%v", a, b)
		}
	})
}

// fuzzEntry decodes one entry from the front of data (zeros past its
// end) and returns the rest.
func fuzzEntry(data []byte) (Entry, []byte) {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	vocab := [...]string{"", "a", "ab", "Int"}
	repr := func() Repr {
		return Repr{Loc: Loc(next(3)), Class: vocab[next(4)], Hash: uint64(next(3)), Str: vocab[next(4)], Seq: next(2)}
	}
	e := Entry{TID: ThreadID(next(2)), Method: vocab[next(4)], Self: repr()}
	ev := &e.Event
	ev.Kind = EventKind(next(8))
	ev.Member = vocab[next(4)]
	ev.Target = repr()
	for n := next(3); n > 0; n-- {
		ev.Args = append(ev.Args, repr())
	}
	for n := next(3); n > 0; n-- {
		ev.Stack = append(ev.Stack, Frame{Method: vocab[next(4)], Caller: repr(), Callee: repr()})
	}
	if next(2) == 1 {
		internEntry(&e, false)
	}
	return e, data
}
