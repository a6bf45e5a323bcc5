package diff

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// synthTrace builds a deterministic synthetic trace of n entries over a
// small pool of classes/methods/objects, rich enough to produce all four
// view types.
func synthTrace(name string, n int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	t := trace.New(name)
	methods := []string{"A.run/0", "B.step/1", "C.emit/1"}
	for i := 0; i < n; i++ {
		obj := trace.Repr{Loc: trace.Loc(1 + rng.Intn(4)), Class: "C", Seq: 1 + rng.Intn(4)}
		val := trace.PrimRepr("Int", fmt.Sprint(rng.Intn(20)))
		var ev trace.Event
		switch rng.Intn(4) {
		case 0:
			ev = trace.Event{Kind: trace.KindGet, Target: obj, Member: "f", Args: []trace.Repr{val}}
		case 1:
			ev = trace.Event{Kind: trace.KindSet, Target: obj, Member: "f", Args: []trace.Repr{val}}
		case 2:
			ev = trace.Event{Kind: trace.KindCall, Target: obj, Member: methods[rng.Intn(3)], Args: []trace.Repr{val}}
		default:
			ev = trace.Event{Kind: trace.KindReturn, Target: obj, Member: methods[rng.Intn(3)]}
		}
		t.Append(0, methods[rng.Intn(3)], obj, ev)
	}
	return t
}

// mutateTrace returns a copy with a few entries value-perturbed, a small
// block deleted, and a small block duplicated — the ingredients of real
// version-to-version drift.
func mutateTrace(t *trace.Trace, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	out := trace.New(t.Name + "-mut")
	skipFrom, skipLen := -1, 0
	if t.Len() > 20 {
		skipFrom = rng.Intn(t.Len() - 10)
		skipLen = 1 + rng.Intn(5)
	}
	for i, e := range t.Entries {
		if skipFrom >= 0 && i >= skipFrom && i < skipFrom+skipLen {
			continue
		}
		ev := e.Event
		if rng.Intn(10) == 0 && len(ev.Args) > 0 {
			args := append([]trace.Repr(nil), ev.Args...)
			args[0] = trace.PrimRepr("Int", fmt.Sprint(100+rng.Intn(50)))
			ev.Args = args
		}
		out.Append(e.TID, e.Method, e.Self, ev)
		if rng.Intn(25) == 0 {
			out.Append(e.TID, e.Method, e.Self, ev) // duplication
		}
	}
	return out
}

func TestPropertyViewDiffPartition(t *testing.T) {
	prop := func(seed int64) bool {
		n := 50 + int(seed%100+100)%100
		l := synthTrace("l", n, seed)
		r := mutateTrace(l, seed+1)
		res := ViewDiff(l, r, ViewOptions{})
		// Every non-eof entry is either similar or a difference, never both.
		for _, e := range l.Entries {
			inDiff := false
			for _, id := range res.DiffLeft {
				if id == e.EID {
					inDiff = true
				}
			}
			if inDiff == res.SimilarLeft.Has(e.EID) {
				return false
			}
		}
		for _, e := range r.Entries {
			inDiff := false
			for _, id := range res.DiffRight {
				if id == e.EID {
					inDiff = true
				}
			}
			if inDiff == res.SimilarRight.Has(e.EID) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropertyIdenticalTracesAllSimilar(t *testing.T) {
	prop := func(seed int64) bool {
		l := synthTrace("l", 80, seed)
		r := synthTrace("r", 80, seed)
		res := ViewDiff(l, r, ViewOptions{})
		return res.NumDiffs() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyViewsNeverWorseThanTrivial(t *testing.T) {
	// The diff set can never exceed the full trace sizes, and similarity
	// is sound: every similar-marked left entry has SOME =e partner in
	// the right trace.
	prop := func(seed int64) bool {
		l := synthTrace("l", 60, seed)
		r := mutateTrace(l, seed*7+3)
		res := ViewDiff(l, r, ViewOptions{})
		if len(res.DiffLeft) > l.Len() || len(res.DiffRight) > r.Len() {
			return false
		}
		for _, eid := range res.SimilarLeft.IDs() {
			found := false
			for j := range r.Entries {
				if trace.EventEqual(&l.Entries[eid], &r.Entries[j]) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLCSAndViewsAgreeOnEqualTraces(t *testing.T) {
	prop := func(seed int64) bool {
		l := synthTrace("l", 70, seed)
		r := synthTrace("r", 70, seed)
		lres, err := LCSDiff(l, r, LCSOptions{})
		if err != nil {
			return false
		}
		vres := ViewDiff(l, r, ViewOptions{})
		return lres.NumDiffs() == 0 && vres.NumDiffs() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPropertySequencesCoverDiffs(t *testing.T) {
	prop := func(seed int64) bool {
		l := synthTrace("l", 90, seed)
		r := mutateTrace(l, seed+11)
		res := ViewDiff(l, r, ViewOptions{})
		// The sequences partition exactly the diff entries.
		seen := map[trace.EntryID]bool{}
		total := 0
		for _, s := range res.Sequences {
			for _, id := range s.Left {
				if seen[id] {
					return false
				}
				seen[id] = true
				total++
			}
		}
		return total == len(res.DiffLeft)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
