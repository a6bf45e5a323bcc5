package index

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzUnmarshalSketch feeds arbitrary bytes to the .sketch.json sidecar
// decoder, seeded with the sidecars TestSketchBytesPinned pins. The
// decoder must never panic and must reject with ErrSketchFormat, and any
// sketch it accepts must survive a Marshal round trip unchanged.
func FuzzUnmarshalSketch(f *testing.F) {
	for name, tr := range pinnedSketchTraces(f) {
		raw, err := SketchTrace(tr).Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		if name == "fam1-var0" {
			f.Add(bytes.Replace(raw, []byte(`"version":1`), []byte(`"version":2`), 1))
		}
	}
	f.Add([]byte(`{"version":1,"total":4294967295,"entries":0,"threads":1,"minhash":"","counts":""}`))
	f.Add([]byte(`{"version":1,"minhash":"!!","counts":"AAAA"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		sk, err := UnmarshalSketch(raw)
		if err != nil {
			if !errors.Is(err, ErrSketchFormat) {
				t.Fatalf("rejection %v does not wrap ErrSketchFormat", err)
			}
			return
		}
		out, err := sk.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalSketch(out)
		if err != nil {
			t.Fatalf("re-marshaled sketch rejected: %v", err)
		}
		if *back != *sk {
			t.Fatal("accepted sketch changed across a Marshal round trip")
		}
	})
}
