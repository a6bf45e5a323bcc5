package diff

import (
	"context"

	"repro/internal/lcs"
	"repro/internal/trace"
	"repro/internal/views"
)

// unit evaluates one correlated thread-view pair under →V. It is the
// parallel decomposition of the views-based differencing semantics:
// every piece of mutable state the evaluation touches — the similarity
// marks, the windowed-LCS memo table, the compare counter, the anchor
// scratch, the cancellation poller, the memory accounting — lives in the
// unit, so any number of units may run on different goroutines without
// synchronization, and running them in any order (or serially) produces
// the same per-unit outputs. The orchestrator in ViewDiffWebsCtx merges
// unit outputs in ascending-left-tid order, which makes the final Result
// byte-identical for every ViewOptions.Parallelism setting. Units share
// nothing mutable: the webs and traces they read are immutable for the
// evaluation.
type unit struct {
	ctx      context.Context
	err      error // first ctx error observed; sticky
	steps    int   // cancellation-poll counter
	opts     ViewOptions
	wl, wr   *views.Web
	lid, rid trace.ThreadID

	// The pair's thread views: their ids, and their entry ids, which the
	// position bits of the marks index.
	lvid, rvid views.ViewID
	tvL, tvR   []trace.EntryID

	// Both sides' entries and class keys, indexed by entry id.
	entL, entR   []trace.Entry
	keysL, keysR []uint64

	// Outputs, merged by the orchestrator.
	seqs         []Sequence
	markL, markR marks
	compares     int64
	explorations int64

	// Working state and its accounting.
	memo        map[memoKey]bool
	memoEntries int   // len(memo) when the pair finished, for memBytes
	peakCells   int64 // largest windowed-LCS DP table of the model (cells)
	maxAnchors  int   // widest anchor set of a single divergence

	// Windowed-LCS scratch, reused by every window of the pair: the
	// kernel's match matrix, rows and pairs.
	lcs lcs.BitMatrix

	// Exploration scratch, made by a pair's first explore and reset by
	// each; the map values index rc.
	// seenL and seenR are indexed by view id: a view was collected by the
	// current collectLinked call iff its slot holds gen.
	lc, rc       []linked
	byKey        map[corrKey]int
	byOffset     map[int]int
	seenL, seenR []uint32
	gen          uint32
	anchors      []anchor

	// Incremental-cache support (Incremental): when trackTail is set the
	// unit records every right-side view it windowed over where the
	// window was clamped at the view's tail — the only reads whose
	// outcome can change when the right web grows without the right
	// thread view growing. tailViews maps each such view to its length
	// at evaluation time; see cachedUnit.valid for the invalidation rule.
	trackTail bool
	tailViews map[views.ViewID]int
}

func newUnit(ctx context.Context, opts ViewOptions, wl, wr *views.Web, lid, rid trace.ThreadID) *unit {
	return &unit{
		ctx: ctx, opts: opts, wl: wl, wr: wr, lid: lid, rid: rid,
		entL: wl.Trace.Entries, entR: wr.Trace.Entries,
		keysL: wl.ClassKeys(), keysR: wr.ClassKeys(),
	}
}

// equal is the counted =e comparison of entries l and r — the paper's
// speedup unit. Entries whose class keys differ are never =e; a key
// match is confirmed in place, so a hash collision never correlates.
// The counter is unit-local; totals are summed at merge.
func (u *unit) equal(l, r trace.EntryID) bool {
	u.compares++
	return u.same(l, r)
}

// same is equal without the count, for callers that count themselves.
func (u *unit) same(l, r trace.EntryID) bool {
	return u.keysL[l] == u.keysR[r] && trace.EventEqual(&u.entL[l], &u.entR[r])
}

// canceled polls the context every 256 bumps. Once an error is observed
// it is sticky: every subsequent call reports true without touching the
// context again, so the evaluation unwinds through its nested loops in
// microseconds regardless of trace size.
func (u *unit) canceled() bool {
	if u.err != nil {
		return true
	}
	u.steps++
	if u.steps&255 != 0 {
		return false
	}
	u.err = u.ctx.Err()
	return u.err != nil
}

// Per-element sizes for the unit's memory accounting. A memo entry is a
// 16-byte key plus a bool, padded and spread over map groups at their
// load factor; an anchor is four words; DP cells are modeled as the
// int32 table of lcs.Compute, whatever the kernel holds, so the figure
// is the paper's cost model. Similarity marks report their own size
// (marks.bytes).
const (
	memoEntryBytes = 24
	anchorBytes    = 32
	dpCellBytes    = 4
)

// memBytes accounts the unit's peak working memory: memo entries, the
// largest windowed DP table of the model, its widest anchor scratch, its
// similarity marks (a bit per thread-view position a side, plus the
// cross-thread entry ids), and its difference sequences. Every term is a
// deterministic function of the inputs, so the orchestrator's sum is
// identical at any parallelism.
func (u *unit) memBytes() int64 {
	seqEntries := 0
	for _, s := range u.seqs {
		seqEntries += len(s.Left) + len(s.Right)
	}
	return int64(u.memoEntries)*memoEntryBytes +
		u.peakCells*dpCellBytes +
		int64(u.maxAnchors)*anchorBytes +
		u.markL.bytes() + u.markR.bytes() +
		int64(seqEntries)*8
}

// memoKey names one windowed-LCS comparison: the two views by id and the
// window buckets of the linking entries' positions.
type memoKey struct {
	lv, rv           views.ViewID
	lBucket, rBucket int32
}

// anchor is a pair of similar entries discovered in linked views, located
// by their positions in the current thread-view pair (-1 when the entry
// belongs to a different thread).
type anchor struct {
	posL, posR int
	eidL, eidR trace.EntryID
}

// evalPair evaluates the unit's thread-view pair.
func (u *unit) evalPair() {
	lvid, okL := u.wl.ID(views.ThreadName(u.lid))
	rvid, okR := u.wr.ID(views.ThreadName(u.rid))
	if !okL || !okR {
		return
	}
	u.lvid, u.rvid = lvid, rvid
	L, R := u.wl.ViewAt(lvid).EIDs, u.wr.ViewAt(rvid).EIDs
	u.tvL, u.tvR = L, R
	u.markL.pos, u.markR.pos = newBitset(len(L)), newBitset(len(R))
	// The exploration scratch lives only while the pair evaluates: a
	// finished unit waits for the merge, or sits in Incremental's cache,
	// and must not pin it.
	defer func() {
		u.markL.compact()
		u.markR.compact()
		u.memoEntries = len(u.memo)
		u.memo, u.seenL, u.seenR = nil, nil, nil
		u.lc, u.rc, u.anchors, u.byKey, u.byOffset = nil, nil, nil, nil, nil
		u.lcs = lcs.BitMatrix{}
	}()

	var seq Sequence
	flush := func() {
		if seq.Size() > 0 {
			switch {
			case len(seq.Left) == 0:
				seq.Kind = Insert
			case len(seq.Right) == 0:
				seq.Kind = Delete
			default:
				seq.Kind = Modify
			}
			u.seqs = append(u.seqs, seq)
			seq = Sequence{}
		}
	}

	i, j := 0, 0
	desyncUntil := 0 // backoff threshold after a failed full resync
	failStreak := 0  // consecutive failed resyncs; escalates the scan limit
	for i < len(L) && j < len(R) {
		if u.canceled() {
			return
		}
		if u.equal(L[i], R[j]) {
			// STEP-VIEW-MATCH
			flush()
			u.markL.pos.set(i)
			u.markR.pos.set(j)
			i++
			j++
			continue
		}
		skip := func(ni, nj int) {
			for k := i; k < ni; k++ {
				seq.Left = append(seq.Left, L[k])
			}
			for k := j; k < nj; k++ {
				seq.Right = append(seq.Right, R[k])
			}
			i, j = ni, nj
		}
		// Cheap lookahead first: small genuine divergences resynchronize
		// within a few entries without any secondary-view work.
		if ni, nj, ok := u.scan(L, R, i, j, u.opts.QuickScan); ok {
			skip(ni, nj)
			continue
		}
		if i+j < desyncUntil {
			// A recent full scan found no correspondence point; the traces
			// are massively diverged here. Consume pairs cheaply until
			// we're past the region the failed scan already covered —
			// this bounds total scan work linearly.
			seq.Left = append(seq.Left, L[i])
			seq.Right = append(seq.Right, R[j])
			i++
			j++
			continue
		}
		// STEP-VIEW-NOMATCH: explore linked secondary views around the
		// diverging entries and collect similar entries.
		anchors := u.explore(L, R, i, j)
		for _, a := range anchors {
			u.markL.mark(a.posL, a.eidL)
			u.markR.mark(a.posR, a.eidR)
		}
		// The scan limit escalates after consecutive failures so that
		// one-sided insertions larger than MaxScan (which a fixed-limit
		// scan with pairwise consumption would never realign past) are
		// eventually bridged. scan caps it by the remaining work; so does
		// the backoff region below.
		limit := u.opts.MaxScan << failStreak
		if rem := (len(L) - i) + (len(R) - j); limit > rem {
			limit = rem
		}
		if ni, nj, ok := u.resyncLimit(L, R, i, j, anchors, limit); ok {
			failStreak = 0
			skip(ni, nj)
			continue
		}
		// No correspondence point within bounds: back off and consume one
		// entry from each side as differences.
		if failStreak < 8 {
			failStreak++
		}
		desyncUntil = i + j + limit
		seq.Left = append(seq.Left, L[i])
		seq.Right = append(seq.Right, R[j])
		i++
		j++
	}
	if u.err != nil {
		return
	}
	for ; i < len(L); i++ {
		seq.Left = append(seq.Left, L[i])
	}
	for ; j < len(R); j++ {
		seq.Right = append(seq.Right, R[j])
	}
	flush()
}

// resyncLimit finds the next pair of corresponding entries (η2, η4): the
// closest equal pair ahead within limit, where "closest" minimizes the
// total number of skipped entries — approximating the minimality side
// condition (γL′ ∩=e γR′ = ⟨⟩) of STEP-VIEW-NOMATCH. Anchor pairs
// discovered in secondary views bound the search; an anti-diagonal scan
// then looks for anything closer.
func (u *unit) resyncLimit(L, R []trace.EntryID, i, j int, anchors []anchor, limit int) (int, int, bool) {
	bestSum := -1
	bi, bj := 0, 0
	for _, a := range anchors {
		if a.posL < i || a.posR < j || (a.posL == i && a.posR == j) {
			continue
		}
		if sum := (a.posL - i) + (a.posR - j); bestSum == -1 || sum < bestSum {
			bestSum, bi, bj = sum, a.posL, a.posR
		}
	}
	scanTo := limit
	if bestSum != -1 && bestSum-1 < scanTo {
		scanTo = bestSum - 1
	}
	if ni, nj, ok := u.scan(L, R, i, j, scanTo); ok {
		return ni, nj, true
	}
	if bestSum != -1 {
		return bi, bj, true
	}
	return 0, 0, false
}

// scan searches anti-diagonals s = 1..limit for the nearest pair of equal
// entries ahead of (i, j), minimizing the total number of skipped entries.
// A candidate pair is "confirmed" when the following entries also match
// (or a trace ends there); a confirmed pair is preferred — resynchronizing
// on a spurious singleton match of a common event (the 0-or-null problem
// of §3.2) would cascade misalignment downstream. An unconfirmed
// candidate is kept as a fallback and returned if no confirmed pair turns
// up within a few further diagonals.
//
// limit is capped by the entries remaining on both sides, beyond which
// every diagonal is empty, so total scan cost stays proportional to the
// trace length whatever limit a caller passes.
func (u *unit) scan(L, R []trace.EntryID, i, j, limit int) (int, int, bool) {
	if rem := (len(L) - i) + (len(R) - j); limit > rem {
		limit = rem
	}
	fallbackI, fallbackJ := -1, -1
	fallbackDeadline := 0
	for s := 1; s <= limit; s++ {
		// Scans escalate to trace-length limits on massively diverged
		// inputs, so the scan itself must be cancellable; a late diagonal
		// alone can cost millions of comparisons, hence the inner poll.
		if u.canceled() {
			return 0, 0, false
		}
		if fallbackI >= 0 && s > fallbackDeadline {
			return fallbackI, fallbackJ, true
		}
		// Walk the anti-diagonal from its balanced middle outward: in
		// highly repetitive trace regions (scanning loops) every phase of
		// the repetition matches =e, and the balanced pair is the one
		// that keeps both sides in phase; a side-biased order would lock
		// onto a phase-shifted match and misalign everything after it.
		for k := 0; k <= s; k++ {
			if k&8191 == 8191 && u.canceled() {
				return 0, 0, false
			}
			di := s/2 + (k+1)/2
			if k%2 == 1 {
				di = s/2 - (k+1)/2
			}
			if di < 0 || di > s {
				continue
			}
			dj := s - di
			if i+di >= len(L) || j+dj >= len(R) {
				continue
			}
			if !u.equal(L[i+di], R[j+dj]) {
				continue
			}
			confirmed := i+di+1 >= len(L) || j+dj+1 >= len(R) ||
				u.equal(L[i+di+1], R[j+dj+1])
			if confirmed {
				return i + di, j + dj, true
			}
			if fallbackI < 0 {
				fallbackI, fallbackJ = i+di, j+dj
				fallbackDeadline = s + 8
			}
		}
	}
	if fallbackI >= 0 {
		return fallbackI, fallbackJ, true
	}
	return 0, 0, false
}

// explore implements SIMILAR-FROM-LINKED-VIEWS: for entries η5/η6 within δ
// of the diverging entries in the two thread views, correlated secondary
// views (matching views) are compared by LCS over fixed-size windows
// around the linking entries; every matched pair is a similar-entry
// anchor.
//
// Candidate pairs come from an index over the correlation keys (method
// signature, object class+seq, object value) rather than a cross product,
// so per-divergence work is bounded by the number of distinct linked
// views. The §5 relaxed pairs are a fallback used only when standard
// correlation yields no anchors ahead of the divergence point.
func (u *unit) explore(L, R []trace.EntryID, i, j int) []anchor {
	if u.memo == nil {
		u.memo = make(map[memoKey]bool)
		u.byKey, u.byOffset = make(map[corrKey]int), make(map[int]int)
		u.seenL = make([]uint32, u.wl.NumViews())
		u.seenR = make([]uint32, u.wr.NumViews())
	}
	if u.gen++; u.gen == 0 {
		// The stamp wrapped: slots stamped long ago would read as seen.
		clear(u.seenL)
		clear(u.seenR)
		u.gen = 1
	}
	u.lc = u.collectLinked(u.lc, u.wl, u.seenL, L, i)
	u.rc = u.collectLinked(u.rc, u.wr, u.seenR, R, j)
	lc, rc := u.lc, u.rc

	// Index the right side by correlation keys.
	clear(u.byKey)
	for ri := range rc {
		keys, n := correlationKeys(&rc[ri])
		for _, k := range keys[:n] {
			if _, dup := u.byKey[k]; !dup {
				u.byKey[k] = ri
			}
		}
	}

	budget := u.opts.MaxExplore
	// The thread views themselves are trivially correlated (they are the
	// pair being evaluated): a local window LCS around the divergence
	// point anchors nearby reorderings.
	out := u.windowLCS(u.anchors[:0],
		&linked{view: u.lvid, pos: int32(i)},
		&linked{view: u.rvid, pos: int32(j)}, &budget)
	for li := range lc {
		if budget <= 0 {
			break
		}
		lk := &lc[li]
		keys, n := correlationKeys(lk)
		for _, k := range keys[:n] {
			ri, ok := u.byKey[k]
			if !ok || rc[ri].name.Type != lk.name.Type {
				continue
			}
			out = u.windowLCS(out, lk, &rc[ri], &budget)
			break
		}
	}
	if u.opts.Relaxed && !anyAhead(out, i, j) {
		// Relaxed context-sensitive correlation: pair views whose linking
		// entries sit at the same distance from the point of divergence,
		// tolerating renamed/split/combined methods.
		clear(u.byOffset)
		for ri := range rc {
			if _, dup := u.byOffset[rc[ri].offset]; !dup {
				u.byOffset[rc[ri].offset] = ri
			}
		}
		for li := range lc {
			if budget <= 0 {
				break
			}
			lk := &lc[li]
			ri, ok := u.byOffset[lk.offset]
			if !ok || rc[ri].name.Type != lk.name.Type {
				continue
			}
			out = u.windowLCS(out, lk, &rc[ri], &budget)
		}
	}
	u.anchors = out
	if len(out) > u.maxAnchors {
		u.maxAnchors = len(out)
	}
	return out
}

// corrKey is one Xτ correlation criterion of a linked view, encoded as a
// comparable struct of interned symbols and small integers — map keys on
// the exploration path are built without any string formatting.
type corrKey struct {
	kind    uint8 // one of the ck* key kinds
	a, b, c uint64
}

const (
	ckInvalid   uint8 = iota
	ckMethod          // a = method symbol
	ckTargetSeq       // a = class symbol, b = creation seq
	ckTargetVal       // a = class symbol, b = value hash, c = value-string symbol
	ckActiveSeq       // a = class symbol, b = creation seq
)

// correlationKeys encodes the Xτ correlation criteria of a linked view:
// method signature for CM; class+seq and class+value for TO; class+seq
// for AO (either TO criterion suffices, §3.1). Returns the keys in a
// fixed-size array to keep the exploration path allocation-free.
func correlationKeys(lk *linked) ([2]corrKey, int) {
	var keys [2]corrKey
	switch lk.name.Type {
	case views.Method:
		keys[0] = corrKey{kind: ckMethod, a: lk.name.Key}
		return keys, 1
	case views.TargetObject:
		t := &lk.entry.Event.Target
		n := 0
		if t.Loc != trace.NoLoc && t.Seq != 0 {
			keys[n] = corrKey{kind: ckTargetSeq, a: uint64(t.ClassSym), b: uint64(t.Seq)}
			n++
		}
		if t.HasValue() {
			keys[n] = corrKey{kind: ckTargetVal, a: uint64(t.ClassSym), b: t.Hash, c: uint64(t.StrSym)}
			n++
		}
		return keys, n
	case views.ActiveObject:
		s := &lk.entry.Self
		if s.Loc != trace.NoLoc && s.Seq != 0 {
			keys[0] = corrKey{kind: ckActiveSeq, a: uint64(s.ClassSym), b: uint64(s.Seq)}
			return keys, 1
		}
	}
	return keys, 0
}

func anyAhead(anchors []anchor, i, j int) bool {
	for _, a := range anchors {
		if a.posL >= i && a.posR >= j && !(a.posL == i && a.posR == j) {
			return true
		}
	}
	return false
}

// linked is a secondary view reachable from an entry near the divergence
// point: the view by name and id, and the linking entry with its
// position in that view and its thread-view offset.
type linked struct {
	name   views.Name
	view   views.ViewID
	pos    int32 // the linking entry's position in the view
	entry  *trace.Entry
	offset int // distance from the divergence point in the thread view
}

// collectLinked gathers the distinct non-thread views linked from entries
// within ±δ of position pos in the thread view, keeping the first linking
// entry per view. Each link carries the view's id and the entry's
// position in it, and the thread link comes first, so the secondary
// views are the links after it. seen is the web's per-view stamp slice;
// a slot holding u.gen was collected by this call. It overwrites out
// from its start.
func (u *unit) collectLinked(out []linked, w *views.Web, seen []uint32, tv []trace.EntryID, pos int) []linked {
	gen := u.gen
	out = out[:0]
	// Clamp by comparing δ against the room on each side: pos+δ itself
	// would wrap negative for a δ near MaxInt.
	r := u.opts.Radius
	lo, hi := 0, len(tv)-1
	if r < pos {
		lo = pos - r
	}
	if r < hi-pos {
		hi = pos + r
	}
	for p := lo; p <= hi; p++ {
		eid := tv[p]
		for _, l := range w.Links(eid)[1:] {
			if seen[l.View] == gen {
				continue
			}
			seen[l.View] = gen
			out = append(out, linked{
				name:   w.ViewAt(l.View).Name,
				view:   l.View,
				pos:    l.Pos,
				entry:  &w.Trace.Entries[eid],
				offset: p - pos,
			})
		}
	}
	return out
}

// windowLCS computes the LCS over fixed ω-windows of a correlated view
// pair, centered at the linking entries, and appends matched pairs to
// out as anchors (memoized per window bucket so repeated divergences
// nearby do not recompute the same comparison). The bit-parallel kernel
// returns the pairs and counts of lcs.Compute without holding its table;
// the (n'+1)(m'+1) cells that table would hold feed the unit's memory
// model. The linking entries' positions come with the links, and an
// anchor's thread-view positions from its entries' thread links.
func (u *unit) windowLCS(out []anchor, lk, rk *linked, budget *int) []anchor {
	if *budget <= 0 {
		return out
	}
	lpos, rpos := int(lk.pos), int(rk.pos)
	key := memoKey{lk.view, rk.view, int32(lpos / u.opts.Window), int32(rpos / u.opts.Window)}
	if u.memo[key] {
		return out
	}
	u.memo[key] = true
	u.explorations++
	*budget--

	if u.trackTail {
		// Views grow append-only, so a window whose upper bound was NOT
		// clamped at the view's tail returns the identical slice on any
		// later snapshot. A tail-clamped window is the one read that can
		// change without the right thread view itself growing; record the
		// view's length so the cache can detect that growth. (ω is
		// compared with the room left, as Window clamps: rpos+ω+1 would
		// wrap negative for an ω near MaxInt.)
		if n := u.wr.ViewAt(rk.view).Len(); u.opts.Window >= n-rpos {
			if u.tailViews == nil {
				u.tailViews = make(map[views.ViewID]int)
			}
			u.tailViews[rk.view] = n
		}
	}
	lwin := u.wl.ViewAt(lk.view).Window(lpos, u.opts.Window)
	rwin := u.wr.ViewAt(rk.view).Window(rpos, u.opts.Window)
	if len(lwin) == 0 || len(rwin) == 0 {
		return out
	}
	// The kernel trims, then the match matrix is filled over the inner
	// window that is left: =e as in same, a class-key hit confirmed in
	// place. The kernel counts the compares lcs.Compute would make.
	x := &u.lcs
	pre, n, m := x.Reset(len(lwin), len(rwin), func(a, b int) bool { return u.same(lwin[a], rwin[b]) })
	for a, l := range lwin[pre : pre+n] {
		row, kl := x.Row(a), u.keysL[l]
		for b, r := range rwin[pre : pre+m] {
			if u.keysR[r] == kl && trace.EventEqual(&u.entL[l], &u.entR[r]) {
				row[b>>6] |= 1 << (b & 63)
			}
		}
	}
	pairs, st, err := x.LCS(u.ctx)
	u.compares += st.Compares
	if st.Cells > u.peakCells {
		u.peakCells = st.Cells
	}
	if err != nil {
		// The only error is cancellation from the kernel's rows, and it
		// must stick to the unit: swallowing it would let a unit finish
		// "successfully" with the aborted window's anchors silently
		// missing.
		if u.err == nil {
			u.err = err
		}
		return out
	}
	for _, p := range pairs {
		a := anchor{eidL: lwin[p.I], eidR: rwin[p.J], posL: -1, posR: -1}
		if l := u.wl.Links(a.eidL)[0]; l.View == u.lvid {
			a.posL = int(l.Pos)
		}
		if l := u.wr.Links(a.eidR)[0]; l.View == u.rvid {
			a.posR = int(l.Pos)
		}
		out = append(out, a)
	}
	return out
}
