package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeSegmented records n entries through a SegmentWriter with the given
// per-segment limit and returns the ids it assigned.
func writeSegmented(t *testing.T, dir, name string, n, limit int) []EntryID {
	t.Helper()
	w, err := NewSegmentWriter(dir, name, limit)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]EntryID, 0, n)
	for i := 0; i < n; i++ {
		id, err := w.Append(1, fmt.Sprintf("C.m%d/0", i%7),
			Repr{Loc: Loc(i + 1), Class: "C", Seq: i + 1},
			Event{Kind: KindCall, Member: fmt.Sprintf("C.m%d/0", i%7),
				Target: Repr{Loc: Loc(i + 1), Class: "C", Seq: i + 1}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestSegmentWriterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const n, limit = 103, 10
	ids := writeSegmented(t, dir, "run", n, limit)
	for i, id := range ids {
		if int(id) != i {
			t.Fatalf("Append assigned id %d to entry %d", id, i)
		}
	}

	segs, err := filepath.Glob(filepath.Join(dir, "run.*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if want := (n + limit - 1) / limit; len(segs) != want {
		t.Errorf("wrote %d segment files, want %d", len(segs), want)
	}

	got, err := LoadSegments(dir, "run")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != n {
		t.Fatalf("reassembled %d entries, want %d", got.Len(), n)
	}
	for i, e := range got.Entries {
		if int(e.EID) != i {
			t.Errorf("entry %d has eid %d: ids not globally consecutive", i, e.EID)
		}
	}
	// Content survives: spot-check a middle entry against its generator.
	e := got.Entries[42]
	if e.Method != "C.m0/0" || e.Event.Target.Seq != 43 {
		t.Errorf("entry 42 corrupted: %s", e)
	}
	// Loaded entries are re-interned into this process's table.
	if e.MethodSym == NoSym || SymStr(e.MethodSym) != e.Method {
		t.Errorf("entry 42 method symbol not re-interned: %v", e.MethodSym)
	}
}

func TestSegmentWriterUnbounded(t *testing.T) {
	dir := t.TempDir()
	writeSegmented(t, dir, "one", 25, 0) // limit 0 = single segment
	segs, _ := filepath.Glob(filepath.Join(dir, "one.*.seg"))
	if len(segs) != 1 {
		t.Fatalf("unbounded writer produced %d segments, want 1", len(segs))
	}
	got, err := LoadSegments(dir, "one")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 25 {
		t.Errorf("reassembled %d entries, want 25", got.Len())
	}
}

func TestSegmentWriterCloseIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	w, err := NewSegmentWriter(dir, "idem", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(1, "M.m/0", Repr{}, Event{Kind: KindCall, Member: "M.m/0"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSegments(dir, "idem")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Errorf("double Close duplicated entries: got %d", got.Len())
	}
}

func TestLoadSegmentsMissing(t *testing.T) {
	if _, err := LoadSegments(t.TempDir(), "nope"); err == nil {
		t.Error("LoadSegments of a missing name succeeded")
	}
}

func TestLoadSegmentsDetectsGap(t *testing.T) {
	dir := t.TempDir()
	writeSegmented(t, dir, "gap", 30, 10)
	// Drop the middle segment: ids are no longer consecutive.
	if err := os.Remove(filepath.Join(dir, "gap.000001.seg")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSegments(dir, "gap"); err == nil {
		t.Error("LoadSegments accepted a trace with a missing segment")
	}
}

func TestSegmentWriterCountsSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := NewSegmentWriter(dir, "n", 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := w.Append(1, "C.m/0", Repr{}, Event{Kind: KindCall, Member: "C.m/0"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "n.*.seg")); len(segs) != 3 {
		t.Errorf("%d segment files after 25 entries at 10 per segment, want 3", len(segs))
	}
}

// corrupt truncates or scribbles over a segment file per the mode.
func corrupt(t *testing.T, path, mode string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	switch mode {
	case "truncate-half":
		raw = raw[:len(raw)/2]
	case "truncate-1":
		raw = raw[:1]
	case "empty":
		raw = nil
	case "garbage":
		for i := range raw {
			raw[i] ^= 0x5a
		}
	default:
		t.Fatalf("unknown corruption mode %q", mode)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSegmentsResyncsTruncatedTail(t *testing.T) {
	// Crash mid-write leaves a partial trailing segment: the loader must
	// recover the readable prefix with a warning, whatever the damage.
	const n, limit = 30, 10 // 3 full segments
	for _, tc := range []struct {
		name string
		mode string
	}{
		{"half-written tail", "truncate-half"},
		{"one-byte tail", "truncate-1"},
		{"empty tail", "empty"},
		{"scribbled tail", "garbage"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeSegmented(t, dir, "run", n, limit)
			corrupt(t, filepath.Join(dir, "run.000002.seg"), tc.mode)

			got, rep, err := LoadSegmentsReport(dir, "run")
			if err != nil {
				t.Fatalf("LoadSegmentsReport failed instead of resyncing: %v", err)
			}
			if !rep.Truncated() {
				t.Fatal("report does not flag the skipped tail")
			}
			if rep.Segments != 2 || got.Len() != 20 {
				t.Errorf("recovered %d entries from %d segments, want 20 from 2", got.Len(), rep.Segments)
			}
			if rep.Warning == "" || rep.SkippedTail == "" {
				t.Errorf("report lacks warning/path: %+v", rep)
			}
			for i, e := range got.Entries {
				if int(e.EID) != i {
					t.Fatalf("recovered prefix not consecutive at %d (eid %d)", i, e.EID)
				}
			}
			// The forgiving wrapper recovers too.
			viaLoad, err := LoadSegments(dir, "run")
			if err != nil {
				t.Fatalf("LoadSegments failed instead of resyncing: %v", err)
			}
			if viaLoad.Len() != got.Len() {
				t.Errorf("LoadSegments recovered %d entries, report path %d", viaLoad.Len(), got.Len())
			}
		})
	}
}

func TestLoadSegmentsMidCorruptionStillFails(t *testing.T) {
	// Corruption anywhere but the tail would hole the entry sequence if
	// skipped; that must stay a hard error.
	dir := t.TempDir()
	writeSegmented(t, dir, "run", 30, 10)
	corrupt(t, filepath.Join(dir, "run.000001.seg"), "truncate-half")
	if _, _, err := LoadSegmentsReport(dir, "run"); err == nil {
		t.Error("LoadSegmentsReport accepted a corrupted middle segment")
	}
}

func TestLoadSegmentsAllCorruptFails(t *testing.T) {
	// Nothing recoverable: a lone unreadable segment is an error, not an
	// empty trace.
	dir := t.TempDir()
	writeSegmented(t, dir, "run", 5, 0)
	corrupt(t, filepath.Join(dir, "run.000000.seg"), "truncate-half")
	if _, _, err := LoadSegmentsReport(dir, "run"); err == nil {
		t.Error("LoadSegmentsReport returned success with zero readable segments")
	}
}
