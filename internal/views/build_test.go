package views

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// mixedFixture builds a trace with every view type represented,
// including EOF entries (which map to no views) scattered through the
// middle.
func mixedFixture(n int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	t := trace.New("mixed")
	methods := []string{"M.a/0", "M.b/1", "N.c/2", "N.d/0", "O.e/1"}
	for i := 0; i < n; i++ {
		if rng.Intn(200) == 0 {
			t.Append(trace.ThreadID(rng.Intn(5)), "", trace.Repr{}, trace.Event{Kind: trace.KindEOF})
			continue
		}
		obj := trace.Repr{Loc: trace.Loc(1 + rng.Intn(40)), Class: "Node", Seq: 1 + rng.Intn(40)}
		val := trace.PrimRepr("Int", fmt.Sprint(rng.Intn(50)))
		var ev trace.Event
		switch rng.Intn(4) {
		case 0:
			ev = trace.Event{Kind: trace.KindGet, Target: obj, Member: "f", Args: []trace.Repr{val}}
		case 1:
			ev = trace.Event{Kind: trace.KindSet, Target: obj, Member: "f", Args: []trace.Repr{val}}
		case 2:
			ev = trace.Event{Kind: trace.KindCall, Target: obj, Member: methods[rng.Intn(5)]}
		default:
			ev = trace.Event{Kind: trace.KindInit, Target: obj, Member: "Node"}
		}
		t.Append(trace.ThreadID(rng.Intn(5)), methods[rng.Intn(5)], obj, ev)
	}
	t.EnsureSyms()
	return t
}

// requireEqualWebs asserts two webs are observably identical: same view
// names, same per-view entry orders, same per-entry links, same object
// index, same memory accounting.
func requireEqualWebs(t *testing.T, want, got *Web, label string) {
	t.Helper()
	wantNames, gotNames := want.Names(), got.Names()
	if !reflect.DeepEqual(wantNames, gotNames) {
		t.Fatalf("%s: view name sets differ: %d vs %d names", label, len(wantNames), len(gotNames))
	}
	for _, n := range wantNames {
		if !reflect.DeepEqual(want.View(n).EIDs, got.View(n).EIDs) {
			t.Fatalf("%s: view %s entry ids differ", label, n)
		}
	}
	for eid := range want.Trace.Entries {
		a, b := want.NamesOf(trace.EntryID(eid)), got.NamesOf(trace.EntryID(eid))
		// EOF entries map to no views; a nil and an empty list are the same.
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: entry %d links differ: %v vs %v", label, eid, a, b)
		}
	}
	if want.Count() != got.Count() {
		t.Fatalf("%s: counts differ: %+v vs %+v", label, want.Count(), got.Count())
	}
	if !reflect.DeepEqual(want.objects, got.objects) {
		t.Fatalf("%s: object indexes differ", label)
	}
	if want.MemBytes() != got.MemBytes() {
		t.Fatalf("%s: MemBytes differ: %d vs %d", label, want.MemBytes(), got.MemBytes())
	}
}

// cancelAfterCtx reports context.Canceled from its n-th Err call on.
type cancelAfterCtx struct {
	context.Context
	calls *int
	n     int
}

func (c cancelAfterCtx) Err() error {
	if *c.calls++; *c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestParallelBuildCancellation: a context canceled before the build,
// or while its loop runs, aborts it with the context's error.
func TestParallelBuildCancellation(t *testing.T) {
	tr := mixedFixture(20000, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildCtx(ctx, tr); !errors.Is(err, context.Canceled) {
		t.Errorf("build on canceled ctx: err = %v, want context.Canceled", err)
	}
	// The upfront check and the loop's first poll pass; the poll at
	// entry 8192 sees the cancellation.
	calls := 0
	if _, err := BuildCtx(cancelAfterCtx{context.Background(), &calls, 3}, tr); !errors.Is(err, context.Canceled) {
		t.Errorf("build canceled mid-loop: err = %v, want context.Canceled", err)
	}
	if calls != 3 {
		t.Errorf("build polled ctx %d times before stopping, want 3", calls)
	}
}
