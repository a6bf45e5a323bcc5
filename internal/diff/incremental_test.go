package diff

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/views"
)

// TestIncrementalRediffEquivalence is the soundness property of the
// incremental cache: for a right-hand trace absorbed segment by segment,
// every Rediff over the growing snapshot deep-equals a from-scratch
// ViewDiffWebs over the same snapshot — sequences, similarity sets,
// difference sets, and Stats included. The CI race job runs this under
// -race at -cpu=1,2,4.
func TestIncrementalRediffEquivalence(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 5; seed++ {
		threads := 2 + int(seed)%3
		l := synthTraceMT("l", 300+int(seed*41)%150, threads, seed)
		r := mutateTrace(l, seed+50)
		wl := views.Build(l)
		opts := ViewOptions{Parallelism: 1 + int(seed)%3}
		if seed == 5 {
			// Every window is a whole view and clamped at its tail.
			opts.Window = math.MaxInt
		}

		inc := NewIncremental(wl, opts)
		b := views.NewIncrementalBuilder(r.Name)
		rng := rand.New(rand.NewSource(seed + 900))
		for lo := 0; lo < r.Len(); {
			hi := lo + 1 + rng.Intn(60)
			if hi > r.Len() {
				hi = r.Len()
			}
			if err := b.Append(r.Entries[lo:hi]); err != nil {
				t.Fatalf("seed %d: append [%d:%d): %v", seed, lo, hi, err)
			}
			lo = hi

			w := b.Snapshot()
			got, st, err := inc.Rediff(ctx, w, 0)
			if err != nil {
				t.Fatalf("seed %d: Rediff at %d entries: %v", seed, w.Trace.Len(), err)
			}
			if st.Dirty+st.Reused != st.Pairs {
				t.Fatalf("seed %d: inconsistent stats %+v", seed, st)
			}
			want := ViewDiffWebs(wl, w, opts)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d: incremental diverged from scratch at %d entries\n"+
					"scratch: diffs=%d seqs=%d stats=%+v\n"+
					"incremental: diffs=%d seqs=%d stats=%+v (eval %+v)",
					seed, w.Trace.Len(),
					want.NumDiffs(), len(want.Sequences), want.Stats,
					got.NumDiffs(), len(got.Sequences), got.Stats, st)
			}
		}
	}
}

// TestIncrementalRediffReuse pins the point of the cache: a re-evaluation
// over an unchanged snapshot recomputes nothing, and appends confined to
// one thread (with events linking only to views of their own) dirty at
// most that thread's pair.
func TestIncrementalRediffReuse(t *testing.T) {
	ctx := context.Background()
	l := synthTraceMT("l", 400, 4, 21)
	r := mutateTrace(l, 22)
	wl := views.Build(l)
	opts := ViewOptions{Parallelism: 2}

	inc := NewIncremental(wl, opts)
	b := views.NewIncrementalBuilder(r.Name)
	if err := b.Append(r.Entries); err != nil {
		t.Fatal(err)
	}
	w := b.Snapshot()
	first, st, err := inc.Rediff(ctx, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reused != 0 || st.Dirty != st.Pairs {
		t.Fatalf("cold cache: %+v, want all pairs dirty", st)
	}

	// Same snapshot again: nothing grew, nothing recomputes.
	again, st, err := inc.Rediff(ctx, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dirty != 0 || st.Reused != st.Pairs {
		t.Fatalf("unchanged snapshot: %+v, want all pairs reused", st)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("fully cached re-evaluation changed the result")
	}

	// Quiet-session appends: tail entries on thread 0 only, with a
	// method/object distinct from everything in the trace so they link
	// only to views no other pair has windowed over.
	tailObj := trace.Repr{Loc: trace.Loc(999), Class: "Tail", Seq: 77}
	for seg := 0; seg < 3; seg++ {
		prev := r.Len()
		for k := 0; k < 10; k++ {
			ev := trace.Event{Kind: trace.KindCall, Target: tailObj, Member: "Tail.only/1",
				Args: []trace.Repr{trace.PrimRepr("Int", fmt.Sprint(seg*10+k))}}
			r.Append(0, "Tail.only/1", tailObj, ev)
		}
		if err := b.Append(r.Entries[prev:]); err != nil {
			t.Fatal(err)
		}
		w = b.Snapshot()
		got, st, err := inc.Rediff(ctx, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.Dirty > 1 {
			t.Fatalf("segment %d: single-thread append dirtied %d of %d pairs", seg, st.Dirty, st.Pairs)
		}
		want := ViewDiffWebs(wl, w, opts)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("segment %d: incremental diverged from scratch", seg)
		}
	}
}

// TestIncrementalRediffShrinkRejected pins the append-only contract.
func TestIncrementalRediffShrinkRejected(t *testing.T) {
	l := synthTraceMT("l", 120, 2, 3)
	r := mutateTrace(l, 4)
	wl := views.Build(l)
	inc := NewIncremental(wl, ViewOptions{Parallelism: 1})
	if _, _, err := inc.Rediff(context.Background(), views.Build(r), 0); err != nil {
		t.Fatal(err)
	}
	short := trace.New("short")
	short.Append(0, "A.run/0", trace.Repr{}, trace.Event{Kind: trace.KindCall, Member: "A.run/0"})
	if _, _, err := inc.Rediff(context.Background(), views.Build(short), 0); err == nil {
		t.Fatal("Rediff accepted a shrunken right trace")
	}
}

// TestIncrementalRediffNewViews grows the right session with entries that
// open views the first snapshot did not have — a fresh method and fresh
// objects on one thread — so the second snapshot numbers more views than
// the first. The re-diff must still deep-equal a from-scratch
// ViewDiffWebs, every unit the cache reuses must still be valid against
// the later snapshot with each tail view's id naming the same view as
// before, and every unit it drops must have been invalid. Whole-view
// windows (ω = MaxInt) clamp every window at its view's tail, so every
// exploring unit records tail views. The CI race job runs this under
// -race at -cpu=1,2,4.
func TestIncrementalRediffNewViews(t *testing.T) {
	ctx := context.Background()
	l := synthTraceMT("l", 400, 4, 31)
	r := mutateTrace(l, 32)
	wl := views.Build(l)
	opts := ViewOptions{Parallelism: 2, Window: math.MaxInt}

	inc := NewIncremental(wl, opts)
	b := views.NewIncrementalBuilder(r.Name)
	if err := b.Append(r.Entries); err != nil {
		t.Fatal(err)
	}
	w1 := b.Snapshot()
	if _, _, err := inc.Rediff(ctx, w1, 0); err != nil {
		t.Fatal(err)
	}
	cached := make(map[pairKey]*cachedUnit, len(inc.pairs))
	tailNames := make(map[pairKey]map[views.ViewID]views.Name)
	tails := 0
	for k, c := range inc.pairs {
		cached[k] = c
		names := make(map[views.ViewID]views.Name)
		for id := range c.u.tailViews {
			names[id] = w1.ViewAt(id).Name
		}
		tailNames[k] = names
		tails += len(names)
	}
	if tails == 0 {
		t.Fatal("no cached unit recorded a tail-clamped window; the test checks nothing")
	}

	prev := r.Len()
	for k := 0; k < 12; k++ {
		obj := trace.Repr{Loc: trace.Loc(5000 + k), Class: "Fresh", Seq: 900 + k}
		ev := trace.Event{Kind: trace.KindCall, Target: obj, Member: "Fresh.only/1",
			Args: []trace.Repr{trace.PrimRepr("Int", fmt.Sprint(k))}}
		r.Append(0, "Fresh.only/1", obj, ev)
	}
	if err := b.Append(r.Entries[prev:]); err != nil {
		t.Fatal(err)
	}
	w2 := b.Snapshot()
	if w2.NumViews() <= w1.NumViews() {
		t.Fatalf("appends opened no view: %d then %d views", w1.NumViews(), w2.NumViews())
	}

	got, st, err := inc.Rediff(ctx, w2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := ViewDiffWebs(wl, w2, opts); !reflect.DeepEqual(want, got) {
		t.Fatalf("incremental diverged from scratch after new views (eval %+v)", st)
	}
	if st.Reused == 0 || st.Dirty == 0 {
		t.Fatalf("eval %+v: want the grown thread's pair dirty and the others reused", st)
	}
	for k, c := range cached {
		reused := inc.pairs[k] == c
		if reused != c.valid(w2) {
			t.Errorf("pair %v: reused %v, but valid against the later snapshot %v", k, reused, c.valid(w2))
		}
		if !reused {
			continue
		}
		for id, n := range c.u.tailViews {
			v := w2.ViewAt(id)
			if v == nil || v.Name != tailNames[k][id] {
				t.Errorf("pair %v: tail view id %d named %v, now %v", k, id, tailNames[k][id], v)
			} else if v.Len() != n {
				t.Errorf("pair %v: reused with tail view %v grown %d -> %d", k, v.Name, n, v.Len())
			}
		}
	}
}
