package trace

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// rsegImage encodes a trace to RSEG bytes.
func rsegImage(t testing.TB, tr *Trace, opts RSEGOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteRSEGOpts(&buf, opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRSEGRoundTripMultithreaded(t *testing.T) {
	for _, opts := range []RSEGOptions{{}, {Compress: true}} {
		t.Run(fmt.Sprintf("compress=%v", opts.Compress), func(t *testing.T) {
			tr := multithreadedTrace()
			r, err := OpenRSEGBytes(rsegImage(t, tr, opts), "mem")
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Trace()
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != tr.Name {
				t.Errorf("name = %q, want %q", got.Name, tr.Name)
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
			if d1, d2 := tr.ComputeDigest(), got.ComputeDigest(); d1 != d2 {
				t.Errorf("digest changed across round trip: %s vs %s", d1, d2)
			}
		})
	}
}

func TestRSEGRoundTripEmpty(t *testing.T) {
	r, err := OpenRSEGBytes(rsegImage(t, New("empty"), RSEGOptions{}), "mem")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Name != "empty" {
		t.Errorf("empty trace loaded as %q with %d entries", got.Name, got.Len())
	}
}

func TestRSEGSaveLoadFile(t *testing.T) {
	tr := multithreadedTrace()
	path := filepath.Join(t.TempDir(), "mt.seg")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	// The default Save format is RSEG, and Load sniffs it back.
	if f, err := SniffFile(path); err != nil || f != FormatRSEG {
		t.Fatalf("SniffFile = %v, %v; want rseg", f, err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := tr.ComputeDigest(), got.ComputeDigest(); d1 != d2 {
		t.Errorf("digest changed across save/load: %s vs %s", d1, d2)
	}
}

// TestSaveFormatSniffRoundTrip writes a trace in each encoding a file
// may hold — RSEG (Save), JSONL (WriteJSONL), and the gob of earlier
// releases — and checks what sniffing and loading make of it: the two
// current formats round-trip to the same digest, gob is refused with a
// *FormatError that names the migration command.
func TestSaveFormatSniffRoundTrip(t *testing.T) {
	tr := multithreadedTrace()
	want := tr.ComputeDigest()
	for _, tc := range []struct {
		name   string
		format Format
		write  func(*Trace, string) error
	}{
		{"rseg", FormatRSEG, (*Trace).Save},
		{"jsonl", FormatJSONL, writeJSONLFile},
		{"gob", 0, writeGobFile},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.seg")
			if err := tc.write(tr, path); err != nil {
				t.Fatal(err)
			}
			f, err := SniffFile(path)
			got, lerr := Load(path)
			if tc.name == "gob" {
				requireConvertHint(t, err)
				requireConvertHint(t, lerr)
				return
			}
			if err != nil || f != tc.format {
				t.Fatalf("SniffFile = %v, %v; want %v", f, err, tc.format)
			}
			if lerr != nil {
				t.Fatal(lerr)
			}
			if d := got.ComputeDigest(); d != want {
				t.Errorf("%v round trip digest %s, want %s", tc.format, d, want)
			}
		})
	}
}

// writeJSONLFile saves a trace as JSONL.
func writeJSONLFile(tr *Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeGobFile saves a trace with encoding/gob, the file format of
// releases before RSEG.
func writeGobFile(tr *Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requireConvertHint asserts err is the *FormatError of an unrecognized
// file and tells the user how to migrate it.
func requireConvertHint(t *testing.T, err error) {
	t.Helper()
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v (%T), want *FormatError", err, err)
	}
	if !strings.Contains(fe.Msg, "rprism convert -dir") || !strings.Contains(fe.Msg, "rprism convert -trace") {
		t.Errorf("error does not name the migration commands: %v", err)
	}
}

// manyThreadTrace builds a trace with n threads of k entries each,
// round-robin interleaved, with per-thread distinguishable content.
func manyThreadTrace(n, k int) *Trace {
	tr := New("many")
	for i := 0; i < n*k; i++ {
		tid := ThreadID(i % n)
		tr.Append(tid, fmt.Sprintf("W%d.run/0", tid),
			Repr{Loc: Loc(tid + 1), Class: "Worker", Seq: int(tid) + 1},
			Event{Kind: KindCall, Member: fmt.Sprintf("W%d.step%d/0", tid, i/n),
				Target: Repr{Loc: Loc(i + 100), Class: "Job", Seq: i + 1},
				Args:   []Repr{PrimRepr("Int", fmt.Sprint(i))}})
	}
	return tr
}

func TestRSEGLazySelectDecodesOnlyTouchedThreads(t *testing.T) {
	const threads, per = 12, 50
	tr := manyThreadTrace(threads, per)
	r, err := OpenRSEGBytes(rsegImage(t, tr, RSEGOptions{}), "mem")
	if err != nil {
		t.Fatal(err)
	}

	// Opening and inspecting the index decodes nothing.
	st := r.Stats()
	if st.Threads != threads || st.Entries != threads*per {
		t.Fatalf("index reports %d threads / %d entries, want %d / %d",
			st.Threads, st.Entries, threads, per*threads)
	}
	if st.ThreadsMaterialized != 0 || st.EntriesMaterialized != 0 {
		t.Fatalf("open materialized %d threads / %d entries; the open must be lazy",
			st.ThreadsMaterialized, st.EntriesMaterialized)
	}
	if n, ok := r.ThreadLen(3); !ok || n != per {
		t.Fatalf("ThreadLen(3) = %d, %v; want %d from the footer index", n, ok, per)
	}
	if st = r.Stats(); st.ThreadsMaterialized != 0 {
		t.Fatal("ThreadLen decoded a thread block")
	}

	// Selecting a 2-thread pair touches exactly those two blocks.
	pair, err := r.Select(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.ThreadsMaterialized != 2 {
		t.Errorf("Select(3, 7) materialized %d thread blocks, want exactly 2", st.ThreadsMaterialized)
	}
	if st.EntriesMaterialized != 2*per {
		t.Errorf("Select(3, 7) materialized %d entries, want %d", st.EntriesMaterialized, 2*per)
	}

	// The selection is a well-formed standalone trace: dense ids, merged
	// in original execution order, content preserved.
	if pair.Len() != 2*per {
		t.Fatalf("selected %d entries, want %d", pair.Len(), 2*per)
	}
	seen := 0
	for i, e := range pair.Entries {
		if int(e.EID) != i {
			t.Fatalf("selected entry %d has eid %d: ids must be dense", i, e.EID)
		}
		if e.TID != 3 && e.TID != 7 {
			t.Fatalf("selected entry %d from thread %d", i, e.TID)
		}
		if e.Method == "W3.run/0" {
			seen++
		}
	}
	if seen != per {
		t.Errorf("thread 3 contributed %d entries to the selection, want %d", seen, per)
	}

	// A later full materialization touches the remaining blocks.
	if _, err := r.Trace(); err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.ThreadsMaterialized != threads || st.EntriesMaterialized != threads*per {
		t.Errorf("full Trace() left stats at %d/%d threads, %d/%d entries",
			st.ThreadsMaterialized, threads, st.EntriesMaterialized, threads*per)
	}
}

func TestRSEGThreadSharedSlice(t *testing.T) {
	tr := manyThreadTrace(4, 10)
	r, err := OpenRSEGBytes(rsegImage(t, tr, RSEGOptions{}), "mem")
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Thread(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Thread(2)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("repeated Thread calls re-decoded the block")
	}
	if st := r.Stats(); st.ThreadsMaterialized != 1 {
		t.Errorf("two Thread(2) calls materialized %d blocks", st.ThreadsMaterialized)
	}
	// Entries keep their original (non-dense) ids in thread order.
	for i := 1; i < len(a); i++ {
		if a[i].EID <= a[i-1].EID {
			t.Fatalf("thread entries out of order at %d: %d then %d", i, a[i-1].EID, a[i].EID)
		}
	}
	if _, err := r.Thread(99); err == nil {
		t.Error("Thread of an unknown tid succeeded")
	}
	if _, err := r.Select(2, 99); err == nil {
		t.Error("Select naming an unknown tid succeeded")
	}
}

func TestRSEGReaderFromFile(t *testing.T) {
	tr := manyThreadTrace(6, 20)
	path := filepath.Join(t.TempDir(), "many.seg")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRSEG(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.MappedBytes == 0 {
		t.Error("reader reports no mapped bytes")
	}
	got, err := r.Select(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Materialized entries survive Close: strings were interned copies,
	// never aliases of the released mapping.
	for i := range got.Entries {
		if got.Entries[i].Method == "" || got.Entries[i].MethodSym == NoSym {
			t.Fatalf("entry %d lost its strings after Close", i)
		}
	}
	if err := r.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

// TestRSEGCorruption drives structurally damaged images through the
// opener and the decoder: every malformation must surface as a
// *FormatError naming an offset — never a panic, never a raw slice
// error.
func TestRSEGCorruption(t *testing.T) {
	valid := rsegImage(t, multithreadedTrace(), RSEGOptions{})
	validz := rsegImage(t, multithreadedTrace(), RSEGOptions{Compress: true})

	mutate := func(img []byte, f func([]byte)) []byte {
		out := append([]byte(nil), img...)
		f(out)
		return out
	}
	for _, tc := range []struct {
		name string
		img  []byte
	}{
		{"empty", nil},
		{"truncated to one byte", valid[:1]},
		{"truncated header", valid[:rsegHeaderSize-2]},
		{"truncated half", valid[:len(valid)/2]},
		{"missing tail", valid[:len(valid)-rsegTailSize]},
		{"bad magic", mutate(valid, func(b []byte) { b[0] = 'X' })},
		{"future version", mutate(valid, func(b []byte) { b[4] = 99 })},
		{"header bit flip", mutate(valid, func(b []byte) { b[5] ^= 0x80 })},
		{"tail magic scribbled", mutate(valid, func(b []byte) { b[len(b)-1] ^= 0xff })},
		{"footer offset out of range", mutate(valid, func(b []byte) {
			for i := 0; i < 8; i++ {
				b[len(b)-rsegTailSize+i] = 0xff
			}
		})},
		{"footer bit flip", mutate(valid, func(b []byte) { b[len(b)-rsegTailSize-3] ^= 0x10 })},
		{"block bit flip", mutate(valid, func(b []byte) { b[rsegHeaderSize+5] ^= 0x01 })},
		{"compressed block bit flip", mutate(validz, func(b []byte) { b[rsegHeaderSize+5] ^= 0x01 })},
		{"all garbage", mutate(valid, func(b []byte) {
			for i := range b {
				b[i] ^= 0x5a
			}
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := OpenRSEGBytes(tc.img, "corrupt")
			if err == nil {
				// Structural shell may survive a payload flip; the decode
				// must then catch it.
				_, err = r.Trace()
			}
			if err == nil {
				t.Fatal("corrupted image decoded without error")
			}
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("error is %T (%v), want *FormatError", err, err)
			}
			if fe.Format != "rseg" || fe.Path != "corrupt" || fe.Offset < 0 {
				t.Errorf("FormatError lacks context: %+v", fe)
			}
		})
	}
}

func TestRSEGCorruptFileViaLoad(t *testing.T) {
	// End to end: a truncated file on disk fails Load with a FormatError
	// that names the path — the error the CLI shows the user.
	tr := multithreadedTrace()
	path := filepath.Join(t.TempDir(), "trunc.seg")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	corrupt(t, path, "truncate-half")
	_, err := Load(path)
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("Load error is %T (%v), want *FormatError", err, err)
	}
	if fe.Path != path {
		t.Errorf("FormatError path %q, want %q", fe.Path, path)
	}
}

// TestSegmentOrderNumeric pins the ordering fix: segment files written
// with bare (unpadded) indices — as foreign producers emit them — must
// reassemble in numeric order. Lexicographic order would interleave
// seg.10 between seg.1 and seg.2 and fail the consecutiveness check.
func TestSegmentOrderNumeric(t *testing.T) {
	const segs, per = 12, 4 // > 10 segments so 9 vs 10 is exercised
	big := manyThreadTrace(2, segs*per/2)
	dir := t.TempDir()
	for i := 0; i < segs; i++ {
		part := &Trace{Name: "bare", Entries: big.Entries[i*per : (i+1)*per]}
		path := filepath.Join(dir, fmt.Sprintf("bare.%d.seg", i))
		if err := part.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadSegments(dir, "bare")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != segs*per {
		t.Fatalf("reassembled %d entries, want %d", got.Len(), segs*per)
	}
	for i, e := range got.Entries {
		if int(e.EID) != i {
			t.Fatalf("entry %d has eid %d: segments were not ordered numerically", i, e.EID)
		}
	}
}

func TestSortSegmentPaths(t *testing.T) {
	paths := []string{
		"d/run.10.seg", "d/run.2.seg", "d/run.000001.seg", "d/run.0.seg",
		"d/run.x.seg", "d/run.9.seg",
	}
	sortSegmentPaths(paths, "run")
	want := []string{
		"d/run.0.seg", "d/run.000001.seg", "d/run.2.seg", "d/run.9.seg",
		"d/run.10.seg", "d/run.x.seg",
	}
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("sorted order %v, want %v", paths, want)
	}
}

func TestLoadSegmentsMixedFormats(t *testing.T) {
	// JSONL and RSEG segments side by side load fine, because Load
	// sniffs per file. A gob segment inside the sequence fails the load
	// with the migration command rather than being skipped.
	big := manyThreadTrace(2, 9) // 18 entries, 3 segments of 6
	write := func(dir string, writers ...func(*Trace, string) error) {
		for i, w := range writers {
			part := &Trace{Name: "mix", Entries: big.Entries[i*6 : (i+1)*6]}
			if err := w(part, filepath.Join(dir, fmt.Sprintf("mix.%06d.seg", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := t.TempDir()
	write(dir, writeJSONLFile, (*Trace).Save, writeJSONLFile)
	got, err := LoadSegments(dir, "mix")
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := big.ComputeDigest(), got.ComputeDigest(); d1 != d2 {
		t.Errorf("mixed-format reassembly changed content: %s vs %s", d1, d2)
	}

	dir = t.TempDir()
	write(dir, (*Trace).Save, writeGobFile, (*Trace).Save)
	_, err = LoadSegments(dir, "mix")
	requireConvertHint(t, err)
}

func TestRSEGCompressionShrinksRepetitiveTraces(t *testing.T) {
	tr := manyThreadTrace(4, 200)
	plain := rsegImage(t, tr, RSEGOptions{})
	packed := rsegImage(t, tr, RSEGOptions{Compress: true})
	if len(packed) >= len(plain) {
		t.Errorf("compressed image is %d bytes, plain %d", len(packed), len(plain))
	}
}

func TestRSEGSmallerThanJSONL(t *testing.T) {
	tr := manyThreadTrace(8, 100)
	var jl bytes.Buffer
	if err := tr.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	if rs := rsegImage(t, tr, RSEGOptions{}); len(rs) >= jl.Len() {
		t.Errorf("RSEG image (%d bytes) not smaller than JSONL (%d bytes)", len(rs), jl.Len())
	}
}

func TestSegmentWriterLegacyFormats(t *testing.T) {
	// The writer produces RSEG only; segment sets an earlier writer left
	// in a legacy format still meet a defined outcome: JSONL reassembles,
	// gob is refused with the migration command.
	for _, tc := range []struct {
		name  string
		write func(*Trace, string) error
	}{
		{"gob", writeGobFile},
		{"jsonl", writeJSONLFile},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := NewSegmentWriter(dir, "leg", 5)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 12; i++ {
				if _, err := w.Append(1, "M.m/0", Repr{}, Event{Kind: KindCall, Member: "M.m/0"}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			paths, err := filepath.Glob(filepath.Join(dir, "leg.*.seg"))
			if err != nil || len(paths) != 3 {
				t.Fatalf("segments %v, %v; want 3", paths, err)
			}
			for _, p := range paths {
				if f, err := SniffFile(p); err != nil || f != FormatRSEG {
					t.Fatalf("%s sniffs as %v, %v; want rseg", p, f, err)
				}
				seg, err := Load(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := tc.write(seg, p); err != nil {
					t.Fatal(err)
				}
			}
			got, err := LoadSegments(dir, "leg")
			if tc.name == "gob" {
				requireConvertHint(t, err)
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != 12 {
				t.Errorf("reassembled %d entries, want 12", got.Len())
			}
		})
	}
}

// benchTrace models the paper's workloads — loop-heavy programs whose
// traces reuse a bounded symbol vocabulary (methods and members bounded
// by code size, values repeating across iterations) — unlike
// manyThreadTrace, whose every entry mints fresh strings.
func benchTrace(threads, per int) *Trace {
	tr := New("bench")
	for i := 0; i < threads*per; i++ {
		tid := ThreadID(i % threads)
		m := fmt.Sprintf("Worker.step%d/1", i%40)
		tr.Append(tid, fmt.Sprintf("Worker.run/%d", tid),
			Repr{Loc: Loc(tid + 1), Class: "Worker", Seq: int(tid) + 1},
			Event{Kind: KindCall, Member: m,
				Target: Repr{Loc: Loc(i%500 + 100), Class: "Job", Seq: i%500 + 1},
				Args:   []Repr{PrimRepr("Int", fmt.Sprint(i%1000))}})
	}
	return tr
}

func BenchmarkRSEGIngest(b *testing.B) {
	tr := benchTrace(8, 2500) // 20k entries
	img := rsegImage(b, tr, RSEGOptions{})
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenRSEGBytes(img, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Trace(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJSONLIngest(b *testing.B) {
	tr := benchTrace(8, 2500)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		b.Fatal(err)
	}
	img := buf.Bytes()
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadJSONL("bench", bytes.NewReader(img)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSEGLoad(b *testing.B) {
	tr := benchTrace(8, 2500)
	path := filepath.Join(b.TempDir(), "bench.seg")
	if err := tr.Save(path); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadRSEG(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSEGSelectPair(b *testing.B) {
	// The lazy-load win: touching 2 of 32 threads.
	tr := benchTrace(32, 625) // 20k entries
	path := filepath.Join(b.TempDir(), "bench.seg")
	if err := tr.Save(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenRSEG(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Select(3, 17); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

func BenchmarkRSEGWrite(b *testing.B) {
	tr := benchTrace(8, 2500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := tr.WriteRSEG(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}
