package views

import (
	"sort"

	"repro/internal/trace"
)

// Correlation functions Xτ (§3.1) decide whether the views of a given type
// of two trace entries — one from each program version — semantically
// correspond. They accept entries rather than view names because the
// decision may be context-sensitive (value representations).
//
// They are heuristics: the experimental results show they are effective
// for regression cause analysis (§3.1).

// CorrelateMethod implements XCM: two method views correspond when the
// fully qualified method names (signatures, including arity) are equal.
func CorrelateMethod(a, b trace.Entry) bool {
	if a.Method == "" {
		return false
	}
	if a.MethodSym != trace.NoSym && b.MethodSym != trace.NoSym {
		return a.MethodSym == b.MethodSym
	}
	return a.Method == b.Method
}

// CorrelateTarget implements XTO: the target objects of the two entries
// correspond when their value representations are equal, or when their
// class-specific object creation sequence numbers (and classes) are equal.
func CorrelateTarget(a, b trace.Entry) bool {
	return objectsCorrelate(&a.Event.Target, &b.Event.Target)
}

// CorrelateActive implements XAO on the executing receivers ρ.
func CorrelateActive(a, b trace.Entry) bool {
	return objectsCorrelate(&a.Self, &b.Self)
}

func objectsCorrelate(x, y *trace.Repr) bool {
	if x.ClassSym != trace.NoSym && y.ClassSym != trace.NoSym {
		if x.ClassSym != y.ClassSym {
			return false
		}
	} else if x.Class != y.Class {
		return false
	}
	if x.Loc == trace.NoLoc && y.Loc == trace.NoLoc {
		// Value objects: correlate by value only.
		return x.HasValue() && x.ValueEqual(y)
	}
	if x.Loc == trace.NoLoc || y.Loc == trace.NoLoc {
		return false
	}
	if x.HasValue() && y.HasValue() && x.ValueEqual(y) {
		return true
	}
	return x.Seq != 0 && x.Seq == y.Seq
}

// ThreadMatch pairs the threads of two traces — XTH. Threads are matched
// by the similarity of their spawn-point call-stack ancestry (and their
// ancestors'), taking the closest match; the main thread of each trace
// (the one with no fork ancestry) always matches the other main thread.
type ThreadMatch struct {
	// Pairs maps left-trace thread ids to right-trace thread ids.
	Pairs map[trace.ThreadID]trace.ThreadID
	// LeftOnly and RightOnly list unmatched threads.
	LeftOnly  []trace.ThreadID
	RightOnly []trace.ThreadID
}

type threadDesc struct {
	id       trace.ThreadID
	ancestry []trace.Frame
}

// threadScan extracts each thread's spawn ancestry from a trace's fork
// events, in order of first appearance; the thread that is never forked
// (the main thread) gets an empty ancestry. It scans a growing trace
// incrementally: each add folds in only the entries appended since the
// previous one.
type threadScan struct {
	forked  map[trace.ThreadID][]trace.Frame
	seen    map[trace.ThreadID]bool
	order   []trace.ThreadID
	scanned int
}

func newThreadScan() *threadScan {
	return &threadScan{
		forked: make(map[trace.ThreadID][]trace.Frame),
		seen:   make(map[trace.ThreadID]bool),
	}
}

// add scans the entries of t past the previous call's length and
// returns the descriptions of every thread seen so far.
func (s *threadScan) add(t *trace.Trace) []threadDesc {
	for i := s.scanned; i < len(t.Entries); i++ {
		e := &t.Entries[i]
		if e.Event.Kind == trace.KindFork {
			var child trace.ThreadID
			for _, c := range e.Event.Member {
				child = child*10 + trace.ThreadID(c-'0')
			}
			s.forked[child] = e.Event.Stack
		}
		if e.Event.Kind != trace.KindEOF && !s.seen[e.TID] {
			s.seen[e.TID] = true
			s.order = append(s.order, e.TID)
		}
	}
	s.scanned = len(t.Entries)
	out := make([]threadDesc, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, threadDesc{id: id, ancestry: s.forked[id]})
	}
	return out
}

// MatchThreads computes XTH between two traces. Matching is greedy on
// descending similarity with spawn order as the tiebreaker, so it is
// deterministic.
func MatchThreads(l, r *trace.Trace) ThreadMatch {
	return NewThreadMatcher(l).Match(r)
}

// ThreadMatcher computes MatchThreads against a fixed left trace and a
// right trace that may grow append-only across calls: the left
// descriptions are extracted once, and each Match folds in only the
// right entries appended since the previous call. Successive calls must
// pass snapshots of the same growing trace (each an append-only
// extension of the previous one); the result is identical to
// MatchThreads over the same pair. Not safe for concurrent use.
type ThreadMatcher struct {
	lt    []threadDesc
	right *threadScan
}

// NewThreadMatcher pins the left-hand trace of a matcher.
func NewThreadMatcher(l *trace.Trace) *ThreadMatcher {
	return &ThreadMatcher{lt: newThreadScan().add(l), right: newThreadScan()}
}

// Match computes XTH between the pinned left trace and the snapshot r,
// scanning only entries beyond the previous snapshot's length.
func (m *ThreadMatcher) Match(r *trace.Trace) ThreadMatch {
	return matchDescs(m.lt, m.right.add(r))
}

// matchDescs runs the greedy matching over extracted descriptions.
func matchDescs(lt, rt []threadDesc) ThreadMatch {
	type cand struct {
		li, ri int
		score  float64
	}
	var cands []cand
	for i, a := range lt {
		for j, b := range rt {
			// Only threads of equal "kind" may pair: main with main
			// (no ancestry), forked with forked.
			if (len(a.ancestry) == 0) != (len(b.ancestry) == 0) {
				continue
			}
			score := trace.StackSimilarity(a.ancestry, b.ancestry)
			if len(a.ancestry) == 0 {
				score = 1 // main threads always correlate
			}
			if score <= 0 {
				continue
			}
			cands = append(cands, cand{i, j, score})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		if cands[i].li != cands[j].li {
			return cands[i].li < cands[j].li
		}
		return cands[i].ri < cands[j].ri
	})
	m := ThreadMatch{Pairs: make(map[trace.ThreadID]trace.ThreadID)}
	usedL := make(map[int]bool)
	usedR := make(map[int]bool)
	for _, c := range cands {
		if usedL[c.li] || usedR[c.ri] {
			continue
		}
		usedL[c.li], usedR[c.ri] = true, true
		m.Pairs[lt[c.li].id] = rt[c.ri].id
	}
	for i, d := range lt {
		if !usedL[i] {
			m.LeftOnly = append(m.LeftOnly, d.id)
		}
	}
	for j, d := range rt {
		if !usedR[j] {
			m.RightOnly = append(m.RightOnly, d.id)
		}
	}
	return m
}
