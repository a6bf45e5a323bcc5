package diff

import (
	"context"
	"fmt"

	"repro/internal/trace"
	"repro/internal/views"
)

// pairKey identifies a correlated thread-view pair across evaluations.
type pairKey struct {
	lid, rid trace.ThreadID
}

// cachedUnit is an evaluated unit plus the fingerprint of every
// growth-sensitive right-side read it performed. A unit's inputs are the
// fixed left web and, on the right, its thread view's EID prefix, entry
// payloads, and links (Links: view ids with the entry's position in each
// view) — all of which are append-stable under views.IncrementalBuilder
// growth, because view ids are append-only and an entry's position in a
// view never changes. The only read whose outcome can change when the
// right web grows is a secondary-view window that was clamped at the
// view's tail (see unit.trackTail), so validity reduces to two length
// checks.
//
// A cached unit keeps its marks and its two thread views' entry ids
// (length-capped slices shared with the webs), which turn the marks'
// position bits back into entry ids when the unit leaves the cache and
// releases them.
type cachedUnit struct {
	u        *unit
	rightLen int // right thread view length at evaluation time
}

// valid reports whether re-evaluating the unit against wr would read
// exactly the inputs it read at cache time: the right thread view has
// not grown, and no view it took a tail-clamped window over has grown.
func (c *cachedUnit) valid(wr *views.Web) bool {
	if viewLen(wr, views.ThreadName(c.u.rid)) != c.rightLen {
		return false
	}
	for id, n := range c.u.tailViews {
		if v := wr.ViewAt(id); v == nil || v.Len() != n {
			return false
		}
	}
	return true
}

func viewLen(w *views.Web, n views.Name) int {
	if v := w.View(n); v != nil {
		return len(v.EIDs)
	}
	return 0
}

// Incremental re-diffs a growing right-hand trace against a pinned
// left-hand baseline, caching per-thread-pair unit results between
// evaluations. On each Rediff only the dirty pairs — those whose
// growth-sensitive inputs changed since their cached evaluation — are
// recomputed; clean pairs reuse their cached outputs. The merge is
// incremental too: the similarity unions are kept as reference counts
// over the cached units and patched by the delta of evicted and
// admitted units, and the difference sets are extended by scanning only
// the entries appended since the previous evaluation — so a quiet
// 100-thread session whose appends touch a handful of threads re-diffs
// in O(dirty pairs + appended entries), not O(trace). The Result is
// DeepEqual to a from-scratch ViewDiffWebs over the same snapshot.
//
// Contract: successive Rediff calls must pass snapshots of the same
// monotonically growing trace (e.g. corpus Session.Web snapshots) —
// each right web an append-only extension of the previous one. The
// cache cannot detect a caller that substitutes an unrelated trace of
// coincidentally equal view lengths. Incremental is not safe for
// concurrent use; the sentinel serializes evaluations per watch.
//
// Ownership: the returned Result's SimilarLeft and SimilarRight sets
// are the Incremental's live merged state, shared across calls — they
// are valid until the next Rediff, which may mutate them in place. A
// caller retaining a Result across evaluations must copy them (IDs). The
// DiffLeft/DiffRight slices and everything else are safe to retain:
// slices are either extended past their returned length or replaced,
// never rewritten.
type Incremental struct {
	wl      *views.Web
	opts    ViewOptions
	tm      *views.ThreadMatcher
	pairs   map[pairKey]*cachedUnit
	lastLen int // right trace length at the previous Rediff

	// Merged similarity state: refL/refR count, per entry id, how many
	// cached units mark the entry similar (units may mark entries on
	// other threads via cross-thread anchors, so marks overlap);
	// simL/simR are the whole-trace sets handed to Results — an entry is
	// present iff its count is positive.
	refL, refR []int32
	simL, simR EntrySet

	// Merged difference state. diffL mirrors diffsFromSimilar(left,
	// simL) and is rebuilt only when left membership changes. diffR
	// covers the first diffRLen right entries (all with EID <= diffRMax)
	// and is extended by scanning appended entries; it is rebuilt when
	// membership changes inside the covered prefix or EIDs stop growing
	// monotonically.
	diffL     []trace.EntryID
	diffLDone bool
	diffR     []trace.EntryID
	diffRLen  int
	diffRMax  trace.EntryID
}

// NewIncremental pins the baseline web and differencing options for a
// sequence of incremental re-diffs.
func NewIncremental(baseline *views.Web, opts ViewOptions) *Incremental {
	return &Incremental{
		wl:       baseline,
		opts:     opts,
		tm:       views.NewThreadMatcher(baseline.Trace),
		pairs:    make(map[pairKey]*cachedUnit),
		refL:     make([]int32, len(baseline.Trace.Entries)),
		simL:     newEntrySet(baseline.Trace),
		diffRMax: -1,
	}
}

// IncrementalStats describes one Rediff evaluation: how many correlated
// thread pairs the snapshot had, and how many were recomputed versus
// served from the cache. Dirty/Pairs is the dirty-pair ratio surfaced in
// /stats.
type IncrementalStats struct {
	Pairs  int // correlated thread pairs this evaluation
	Dirty  int // pairs recomputed (cache miss or invalidated)
	Reused int // pairs served from the cache
	Width  int // worker count the dirty pairs were evaluated at
}

// Rediff evaluates the diff of the pinned baseline against the snapshot
// web wr, reusing cached per-pair results where valid. Thread matching
// is recomputed per call (new threads can appear and shift pairings —
// that affects only the hit rate, never correctness, because a pair is
// cached under both tids). Cached entries for pairs absent from the
// current matching are pruned. par, when positive, is this evaluation's
// worker count in place of the pinned options' Parallelism, so a caller
// under a worker budget can size each evaluation from the slots free
// when it starts; the Result is the same at any width.
func (inc *Incremental) Rediff(ctx context.Context, wr *views.Web, par int) (*Result, IncrementalStats, error) {
	var st IncrementalStats
	if n := wr.Trace.Len(); n < inc.lastLen {
		return nil, st, fmt.Errorf("diff: incremental right trace shrank (%d -> %d entries); snapshots must grow append-only", inc.lastLen, n)
	}
	if n := len(wr.Trace.Entries); n > len(inc.refR) {
		inc.refR = append(inc.refR, make([]int32, n-len(inc.refR))...)
		inc.simR.b = inc.simR.b.grow(n)
	}
	opts := inc.opts
	if par > 0 {
		opts.Parallelism = par
	}
	opts = opts.withDefaults()
	tm := inc.tm.Match(wr.Trace)
	lids := pairOrder(tm)
	units := make([]*unit, len(lids))
	var dirty []*unit
	next := make(map[pairKey]*cachedUnit, len(lids))
	for i, lid := range lids {
		rid := tm.Pairs[lid]
		key := pairKey{lid, rid}
		if c, ok := inc.pairs[key]; ok && c.valid(wr) {
			units[i] = c.u
			next[key] = c
			continue
		}
		u := newUnit(ctx, opts, inc.wl, wr, lid, rid)
		u.trackTail = true
		units[i] = u
		dirty = append(dirty, u)
	}
	st.Pairs = len(units)
	st.Dirty = len(dirty)
	st.Reused = len(units) - len(dirty)
	st.Width = opts.Parallelism

	runUnits(ctx, dirty, opts.Parallelism)
	for _, u := range dirty {
		if u.err != nil {
			return nil, st, u.err
		}
	}
	// Admit the fresh evaluations. Dropping the web and context
	// references keeps a cached unit from pinning old snapshots or
	// context chains; nothing after evalPair reads them but the thread
	// views' entry ids, which the marks index.
	for _, u := range dirty {
		rlen := viewLen(wr, views.ThreadName(u.rid))
		u.ctx, u.wl, u.wr = nil, nil, nil
		u.entL, u.entR, u.keysL, u.keysR = nil, nil, nil, nil
		next[pairKey{u.lid, u.rid}] = &cachedUnit{u: u, rightLen: rlen}
	}

	// Patch the merged similarity sets by the cache delta: units that
	// left the cache (invalidated, replaced, or pruned) release their
	// marks, fresh units acquire theirs. Touched entries are then
	// reconciled against the membership maps — an entry released and
	// re-acquired by the unit's re-evaluation nets out to no change.
	var touchedL, touchedR []trace.EntryID
	for key, c := range inc.pairs {
		if next[key] != c {
			touchedL = updateRefs(inc.refL, &c.u.markL, c.u.tvL, -1, touchedL)
			touchedR = updateRefs(inc.refR, &c.u.markR, c.u.tvR, -1, touchedR)
		}
	}
	for _, u := range dirty {
		touchedL = updateRefs(inc.refL, &u.markL, u.tvL, +1, touchedL)
		touchedR = updateRefs(inc.refR, &u.markR, u.tvR, +1, touchedR)
	}
	inc.pairs = next
	inc.lastLen = wr.Trace.Len()

	leftChanged, _ := syncMembership(inc.refL, inc.simL, touchedL, -1)
	_, rightInterior := syncMembership(inc.refR, inc.simR, touchedR, inc.diffRMax)
	inc.refreshDiffs(wr.Trace, leftChanged, rightInterior)

	return assemble(inc.wl, wr, tm, units, inc.simL, inc.simR, inc.diffL, inc.diffR), st, nil
}

// updateRefs applies a reference-count delta for every entry one side
// of a unit marks similar (tv is that side's thread view), recording the
// touched entry ids.
func updateRefs(ref []int32, m *marks, tv []trace.EntryID, d int32, touched []trace.EntryID) []trace.EntryID {
	m.each(tv, func(id trace.EntryID) {
		ref[id] += d
		touched = append(touched, id)
	})
	return touched
}

// syncMembership reconciles the membership set against the reference
// counts for the touched entries. It reports whether any membership
// actually changed, and whether a change landed at or below boundary
// (pass -1 to ignore the boundary).
func syncMembership(ref []int32, sim EntrySet, touched []trace.EntryID, boundary trace.EntryID) (changed, belowBoundary bool) {
	for _, id := range touched {
		now := ref[id] > 0
		if now == sim.Has(id) {
			continue
		}
		if now {
			sim.add(id)
		} else {
			sim.b.unset(int(id))
		}
		changed = true
		if id <= boundary {
			belowBoundary = true
		}
	}
	return changed, belowBoundary
}

// refreshDiffs brings the merged difference sets up to date. The left
// trace is fixed, so diffL only changes when left membership does. diffR
// normally extends by scanning just the appended entries; membership
// changes inside the already-covered prefix, or EIDs that stop growing
// monotonically, force a from-scratch rebuild of the side.
func (inc *Incremental) refreshDiffs(r *trace.Trace, leftChanged, rightInterior bool) {
	if leftChanged || !inc.diffLDone {
		inc.diffL = diffsFromSimilar(inc.wl.Trace, inc.simL)
		inc.diffLDone = true
	}
	rebuild := rightInterior
	if !rebuild {
		for i := inc.diffRLen; i < len(r.Entries); i++ {
			e := &r.Entries[i]
			if e.Event.Kind == trace.KindEOF {
				continue
			}
			if e.EID <= inc.diffRMax {
				rebuild = true
				break
			}
			inc.diffRMax = e.EID
			if !inc.simR.Has(e.EID) {
				inc.diffR = append(inc.diffR, e.EID)
			}
		}
	}
	if rebuild {
		inc.diffR = diffsFromSimilar(r, inc.simR)
		inc.diffRMax = -1
		for i := range r.Entries {
			if e := &r.Entries[i]; e.Event.Kind != trace.KindEOF && e.EID > inc.diffRMax {
				inc.diffRMax = e.EID
			}
		}
	}
	inc.diffRLen = len(r.Entries)
}
