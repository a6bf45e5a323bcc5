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

// FuzzRSEGDecode throws arbitrary bytes at the full RSEG read path:
// structural parse, symbol block, every thread column, full
// materialization. The contract under fuzzing is total: any input either
// decodes or fails with a *FormatError — no panics, no unbounded
// allocations, no other error type.
func FuzzRSEGDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("RSEG"))
	f.Add(rsegImage(f, New("empty"), RSEGOptions{}))
	f.Add(rsegImage(f, multithreadedTrace(), RSEGOptions{}))
	f.Add(rsegImage(f, multithreadedTrace(), RSEGOptions{Compress: true}))
	f.Add(rsegImage(f, manyThreadTrace(5, 7), RSEGOptions{}))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenRSEGBytes(data, "fuzz")
		if err != nil {
			requireFormatError(t, err)
			return
		}
		for _, tid := range r.ThreadIDs() {
			if _, err := r.Thread(tid); err != nil {
				requireFormatError(t, err)
			}
		}
		if _, err := r.Trace(); err != nil {
			requireFormatError(t, err)
		}
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
