package views

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// appendInSegments feeds tr to a fresh builder in random-sized segments
// drawn from rng, returning the builder.
func appendInSegments(t *testing.T, tr *trace.Trace, rng *rand.Rand, maxSeg int) *IncrementalBuilder {
	t.Helper()
	b := NewIncrementalBuilder(tr.Name)
	for lo := 0; lo < tr.Len(); {
		hi := lo + 1 + rng.Intn(maxSeg)
		if hi > tr.Len() {
			hi = tr.Len()
		}
		if err := b.Append(tr.Entries[lo:hi]); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	return b
}

// TestIncrementalMatchesBatch is the incremental-vs-batch equivalence
// property: a builder fed N random segment appends snapshots to a web
// semantically identical to a fresh build over the same entries — for
// single-entry appends, one append of the whole trace, and everything
// between.
func TestIncrementalMatchesBatch(t *testing.T) {
	for _, tc := range []struct {
		n, maxSeg int
	}{
		{1, 1},
		{50, 7},
		{1000, 64},
		{9001, 500},
		{20000, 40000}, // one append of the whole trace
		{40000, 17000}, // a few appends of up to 17K entries
	} {
		rng := rand.New(rand.NewSource(int64(tc.n)*31 + int64(tc.maxSeg)))
		tr := mixedFixture(tc.n, int64(tc.n))
		b := appendInSegments(t, tr, rng, tc.maxSeg)
		fresh, err := BuildCtx(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("n=%d maxSeg=%d", tc.n, tc.maxSeg)
		got := b.Snapshot()
		requireEqualWebs(t, fresh, got, label)
		if err := Equivalent(fresh, got); err != nil {
			t.Errorf("%s: Equivalent: %v", label, err)
		}
		if b.Len() != tr.Len() {
			t.Errorf("%s: builder holds %d entries, want %d", label, b.Len(), tr.Len())
		}
		if !reflect.DeepEqual(b.SnapshotTrace().Entries, tr.Entries) {
			t.Errorf("%s: snapshot trace entries differ from the source", label)
		}
	}
}

// TestIncrementalMidStreamSnapshots checks every prefix: after each
// append, the snapshot equals a fresh build over the prefix, so a live
// session is query-ready at any moment, not only at the end.
func TestIncrementalMidStreamSnapshots(t *testing.T) {
	tr := mixedFixture(600, 77)
	rng := rand.New(rand.NewSource(77))
	b := NewIncrementalBuilder(tr.Name)
	for lo := 0; lo < tr.Len(); {
		hi := lo + 1 + rng.Intn(90)
		if hi > tr.Len() {
			hi = tr.Len()
		}
		if err := b.Append(tr.Entries[lo:hi]); err != nil {
			t.Fatal(err)
		}
		prefix := &trace.Trace{Name: tr.Name, Entries: tr.Entries[:hi:hi]}
		fresh, err := BuildCtx(context.Background(), prefix)
		if err != nil {
			t.Fatal(err)
		}
		if err := Equivalent(fresh, b.Snapshot()); err != nil {
			t.Fatalf("prefix [0,%d): %v", hi, err)
		}
		lo = hi
	}
}

// TestIncrementalSnapshotStableUnderAppends is the liveness property the
// server relies on: webs snapshotted mid-stream stay valid and unchanged
// while the builder keeps appending (readers hold a diff over them
// concurrently). Run under -race this doubles as the no-rewrite proof;
// it also checks the reader goroutines drain (no leaks).
func TestIncrementalSnapshotStableUnderAppends(t *testing.T) {
	tr := mixedFixture(4000, 13)
	rng := rand.New(rand.NewSource(13))
	b := NewIncrementalBuilder(tr.Name)

	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	type snap struct {
		web *Web
		n   int
	}
	checks := make(chan error, 64)
	reader := func(s snap) {
		defer wg.Done()
		// Re-walk the snapshot several times while appends continue.
		for k := 0; k < 3; k++ {
			if got := s.web.Trace.Len(); got != s.n {
				checks <- fmt.Errorf("snapshot length changed: %d -> %d", s.n, got)
				return
			}
			total := 0
			for _, n := range s.web.Names() {
				v := s.web.View(n)
				for i, eid := range v.EIDs {
					if int(eid) >= s.n {
						checks <- fmt.Errorf("view %s leaked future entry %d into a %d-entry snapshot", n, eid, s.n)
						return
					}
					if i > 0 && v.EIDs[i-1] >= eid {
						checks <- fmt.Errorf("view %s no longer ascending at %d", n, i)
						return
					}
				}
				total += v.Len()
			}
			if total == 0 && s.n > 0 {
				checks <- fmt.Errorf("%d-entry snapshot has empty views", s.n)
				return
			}
		}
		checks <- nil
	}

	for lo := 0; lo < tr.Len(); {
		hi := lo + 1 + rng.Intn(300)
		if hi > tr.Len() {
			hi = tr.Len()
		}
		if err := b.Append(tr.Entries[lo:hi]); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go reader(snap{web: b.Snapshot(), n: hi})
		lo = hi
	}
	wg.Wait()
	close(checks)
	for err := range checks {
		if err != nil {
			t.Error(err)
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Errorf("snapshot readers leaked goroutines: %d before, %d after", baseline, g)
	}
}

func TestIncrementalAppendValidation(t *testing.T) {
	tr := mixedFixture(40, 5)
	b := NewIncrementalBuilder("v")
	if err := b.Append(tr.Entries[:10]); err != nil {
		t.Fatal(err)
	}
	// Re-delivery of an already-applied prefix is idempotent.
	if err := b.Append(tr.Entries[:20]); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 20 {
		t.Fatalf("after overlapping redelivery: %d entries, want 20", b.Len())
	}
	// A gap is an error.
	if err := b.Append(tr.Entries[25:]); err == nil {
		t.Error("Append accepted a gapped segment")
	}
	// Empty appends are no-ops.
	if err := b.Append(nil); err != nil || b.Len() != 20 {
		t.Errorf("empty append: err=%v len=%d", err, b.Len())
	}
}

// BenchmarkIncrementalAppend measures streaming-ingestion throughput:
// entries appended per second through the incremental builder in
// capture-sized segments.
func BenchmarkIncrementalAppend(b *testing.B) {
	tr := mixedFixture(1<<15, 42)
	const seg = 4096
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ib := NewIncrementalBuilder(tr.Name)
		for lo := 0; lo < tr.Len(); lo += seg {
			hi := lo + seg
			if hi > tr.Len() {
				hi = tr.Len()
			}
			if err := ib.Append(tr.Entries[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	entries := float64(tr.Len()) * float64(b.N)
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(entries/secs, "entries/s")
	}
}

// FuzzWebLinks feeds a small trace the input describes — several
// threads, methods, heap objects, string values and EOF entries —
// through an IncrementalBuilder in the batch splits the input chooses,
// snapshotting after every batch. In every snapshot each link must
// round-trip (the view it names holds the entry at its position) and
// lead with the entry's thread view; a view id taken from one snapshot
// must name the same view, grown append-only, in every later one; and
// the last snapshot must be Equivalent to a batch Build.
func FuzzWebLinks(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 0x82, 5, 0x2a, 1, 1, 6, 3, 2, 0x47, 0x85, 0, 0, 4, 3, 0x21})
	f.Add([]byte{0x80, 0, 1, 0x80, 1, 2, 0x80, 2, 3, 0x80, 3, 4, 0x80, 4, 5, 0x80, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, cuts := fuzzLinkTrace(data)
		b := NewIncrementalBuilder(tr.Name)
		var snaps []*Web
		lo := 0
		for _, hi := range append(cuts, tr.Len()) {
			if err := b.Append(tr.Entries[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
			snaps = append(snaps, b.Snapshot())
		}
		for si, w := range snaps {
			for eid := 0; eid < w.Trace.Len(); eid++ {
				e := &w.Trace.Entries[eid]
				links := w.Links(e.EID)
				if e.IsEOF() != (len(links) == 0) {
					t.Fatalf("snapshot %d: entry %d (eof %v) has %d links", si, eid, e.IsEOF(), len(links))
				}
				for i, l := range links {
					v := w.ViewAt(l.View)
					if v == nil || int(l.Pos) >= v.Len() || v.EIDs[l.Pos] != e.EID {
						t.Fatalf("snapshot %d: entry %d link %+v does not round-trip", si, eid, l)
					}
					if (i == 0) != (v.Name == ThreadName(e.TID)) {
						t.Fatalf("snapshot %d: entry %d link %d names %v", si, eid, i, v.Name)
					}
				}
			}
			for _, later := range snaps[si+1:] {
				for id := 0; id < w.NumViews(); id++ {
					v, lv := w.ViewAt(ViewID(id)), later.ViewAt(ViewID(id))
					if lv == nil || lv.Name != v.Name || !slices.Equal(lv.EIDs[:v.Len()], v.EIDs) {
						t.Fatalf("view id %d names %v in snapshot %d but not later", id, v.Name, si)
					}
				}
			}
		}
		if err := Equivalent(Build(tr), snaps[len(snaps)-1]); err != nil {
			t.Fatalf("incremental web differs from batch Build: %v", err)
		}
	})
}

// fuzzLinkTrace decodes FuzzWebLinks's input, three bytes an entry and
// at most maxFuzzLinkEntries entries (the checks are quadratic in the
// snapshots), into a trace and the batch cuts (ascending entry counts)
// to append it in.
// Byte 0 picks the kind (six: get, set, call, return, init, EOF), and
// its top bit cuts a batch after the entry. Byte 1 picks the thread (4)
// and the method (3, or none). Byte 2 picks the target (none, five heap
// objects, or a string value of four) and the active object (none or
// three).
const maxFuzzLinkEntries = 96

func fuzzLinkTrace(data []byte) (*trace.Trace, []int) {
	kinds := []trace.EventKind{trace.KindGet, trace.KindSet, trace.KindCall, trace.KindReturn, trace.KindInit, trace.KindEOF}
	methods := []string{"A.run/0", "A.get/1", "B.put/2", ""}
	tr := trace.New("fuzz")
	var cuts []int
	for ; len(data) >= 3 && tr.Len() < maxFuzzLinkEntries; data = data[3:] {
		c0, c1, c2 := data[0], data[1], data[2]
		kind := kinds[int(c0&0x7f)%len(kinds)]
		tid := trace.ThreadID(c1 & 3)
		if kind == trace.KindEOF {
			tr.Append(tid, "", trace.Repr{}, trace.Event{Kind: trace.KindEOF})
		} else {
			target := trace.PrimRepr("Int", "7")
			switch o := c2 & 7; {
			case o >= 1 && o <= 5:
				target = trace.Repr{Loc: trace.Loc(o), Class: "Obj", Seq: int(o)}
			case o >= 6:
				target = trace.PrimRepr("String", fmt.Sprint("s", c2>>3&3))
			}
			var self trace.Repr
			if a := c2 >> 5 & 3; a != 0 {
				self = trace.Repr{Loc: trace.Loc(a), Class: "Obj", Seq: int(a)}
			}
			tr.Append(tid, methods[int(c1>>2)%len(methods)], self,
				trace.Event{Kind: kind, Target: target, Member: "m"})
		}
		if c0&0x80 != 0 {
			cuts = append(cuts, tr.Len())
		}
	}
	return tr, cuts
}
