package views

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/trace"
)

// concurrentFixture builds an interned trace with enough structure to
// exercise every view type and navigation path.
func concurrentFixture() *trace.Trace {
	t := trace.New("concurrent")
	for i := 0; i < 400; i++ {
		obj := trace.Repr{Loc: trace.Loc(i%17 + 1), Class: "Node", Seq: i%17 + 1}
		t.Append(trace.ThreadID(i%3+1), fmt.Sprintf("Node.step%d/0", i%5), obj,
			trace.Event{Kind: trace.KindCall, Target: obj,
				Member: fmt.Sprintf("Node.step%d/0", (i+1)%5)})
	}
	t.EnsureSyms()
	return t
}

// TestWebConcurrentReaders drives every read path of a shared web from
// many goroutines at once. Run under -race it verifies the Build
// contract the corpus view cache depends on: a built web is immutable
// and needs no synchronization.
func TestWebConcurrentReaders(t *testing.T) {
	tr := concurrentFixture()
	w := Build(tr)
	names := w.Names()
	if len(names) == 0 {
		t.Fatal("fixture produced no views")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				n := names[(g+round)%len(names)]
				v := w.View(n)
				if v == nil || v.Len() == 0 {
					t.Errorf("view %s missing or empty", n)
					return
				}
				eid := v.EIDs[round%v.Len()]
				pos, ok := w.PosIn(n, eid)
				if !ok {
					t.Errorf("PosIn(%s, %d) lost a member entry", n, eid)
					return
				}
				w.Window(n, pos, 3)
				w.NamesOf(eid)
				if l := w.Links(eid)[0]; w.ViewAt(l.View).EIDs[l.Pos] != eid {
					t.Errorf("thread link %+v of entry %d does not round-trip", l, eid)
					return
				}
				w.Count()
				w.Names()
				if o, ok := w.Object(trace.Loc(round%17 + 1)); !ok || o.Class != "Node" {
					t.Errorf("Object(%d) = %+v, %v", round%17+1, o, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBuildConcurrentOverInternedTrace builds webs over the same
// fully-interned trace from several goroutines — the corpus cache-miss
// pattern where two requests race to construct views of one trace.
func TestBuildConcurrentOverInternedTrace(t *testing.T) {
	tr := concurrentFixture()
	var wg sync.WaitGroup
	webs := make([]*Web, 6)
	for i := range webs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			webs[i] = Build(tr)
		}(i)
	}
	wg.Wait()
	want := webs[0].Count()
	for _, w := range webs[1:] {
		if w.Count() != want {
			t.Errorf("concurrent Build diverged: %+v vs %+v", w.Count(), want)
		}
	}
}
