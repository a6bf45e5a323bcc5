package corpus

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzMetaSidecar feeds arbitrary bytes to New as the meta sidecar of a
// stored trace, then reads the trace back. Sidecars are untrusted input
// (Meta.Segments decides how many files a load opens): New may refuse
// one and Get may fail, but neither may panic.
func FuzzMetaSidecar(f *testing.F) {
	src := f.TempDir()
	s, err := New(src, Options{SegmentLimit: 16})
	if err != nil {
		f.Fatal(err)
	}
	id := mustPut(f, s, makeTrace("fuzz", 1, 40))
	files, err := filepath.Glob(filepath.Join(src, id.String()+".*"))
	if err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(s.metaPath(id))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"id":"` + id.String() + `","entries":40,"segments":1000000000}`))
	f.Add([]byte(`{"id":"` + id.String() + `","entries":9223372036854775807,"segments":3}`))
	f.Add([]byte(`{"id":"` + id.String() + `","entries":40,"segments":2}`))
	f.Add([]byte(`{"id":"` + id.String() + `","entries":4000000000000,"segments":3000000000000}`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, sidecar []byte) {
		dir := t.TempDir()
		for _, p := range files {
			copyFile(t, p, filepath.Join(dir, filepath.Base(p)))
		}
		if err := os.WriteFile(filepath.Join(dir, id.String()+".meta.json"), sidecar, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(dir, Options{})
		if err != nil {
			return
		}
		if tr, err := s.Get(id); err == nil && tr.Len() != 40 {
			t.Fatalf("Get served %d entries of a 40-entry trace", tr.Len())
		}
	})
}
