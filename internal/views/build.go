package views

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/trace"
)

// BuildOptions tune web construction. The zero value is the right call
// for nearly everyone: automatic parallelism on large traces, the exact
// serial pass on small ones.
type BuildOptions struct {
	// Workers shards the entry scan and the view filling across this many
	// goroutines. 0 means automatic: GOMAXPROCS workers for traces of at
	// least parallelBuildThreshold entries, serial below that (goroutine
	// startup would dominate). 1 forces the serial pass; n > 1 forces n
	// workers regardless of trace size. Every setting produces an
	// identical web.
	Workers int
}

// parallelBuildThreshold is the trace size below which the automatic
// mode stays serial: sharding a scan this short costs more in goroutine
// startup and merge bookkeeping than the scan itself.
const parallelBuildThreshold = 1 << 14

// buildPollMask throttles context polls in the build loops to one every
// 8192 entries.
const buildPollMask = 8191

// Build constructs the view web over the trace, applying the view-name
// mapping functions ωτ of Fig. 7 to every entry. The per-entry name
// lists live in shared arenas rather than one slice allocation per
// entry.
//
// The returned Web is never written again after Build returns: every
// method on Web is read-only, so a built web may be shared by any number
// of goroutines without synchronization. The corpus view cache relies on
// this to hand one memoized web to N concurrent diff requests. The one
// caveat is the trace itself: Build backfills missing Sym fields via
// EnsureSyms, so the first Build over a given hand-built trace must not
// race another Build of the same trace. Traces produced by the
// interpreter or any loader are fully interned already, making EnsureSyms
// a read-only scan and concurrent Builds safe.
func Build(t *trace.Trace) *Web {
	w, _ := BuildCtxOpts(context.Background(), t, BuildOptions{})
	return w
}

// BuildCtx is Build with cancellation: ctx is polled periodically during
// the construction passes, and a canceled context aborts the build with
// the context's error. Servers building webs over multi-million-entry
// traces use this to kill requests whose clients have gone away.
func BuildCtx(ctx context.Context, t *trace.Trace) (*Web, error) {
	return BuildCtxOpts(ctx, t, BuildOptions{})
}

// BuildCtxOpts is BuildCtx with explicit options. A batch build is an
// incremental one that starts from the empty web: both run the one
// extend pass, whose sharded half (Workers > 1) produces a web identical
// — same views, same orderings, same MemBytes — to its serial half.
func BuildCtxOpts(ctx context.Context, t *trace.Trace, opts BuildOptions) (*Web, error) {
	w := newWeb(t)
	if err := w.extend(ctx, 0, opts.Workers); err != nil {
		return nil, err
	}
	return w, nil
}

// newWeb returns the empty web over t; extend indexes its entries.
func newWeb(t *trace.Trace) *Web {
	return &Web{
		Trace:   t,
		views:   make(map[Name]*View),
		objects: make(map[trace.Loc]ObjectInfo),
	}
}

// extend indexes the entries w.Trace.Entries[start:], which the caller
// has already appended: it interns and keys them, links each to its
// views, appends it to every view's entry-id list, and records the
// objects first seen among them. Build runs it once from start 0;
// IncrementalBuilder runs it once per appended batch.
//
// workers follows BuildOptions.Workers, applied to the batch: 0 shards
// batches of at least parallelBuildThreshold entries over GOMAXPROCS
// goroutines and runs smaller ones serially. The serial half fills one
// new arena and appends to the views in entry order. The sharded half
// cuts the batch into contiguous shards that scan concurrently into
// their own arenas; the merge grows every touched view to its exact new
// length, with each shard's run starting past the web built so far and
// the runs of earlier shards; then the shards fill their disjoint ranges
// concurrently.
//
// Every structure grows append-only — new arenas, new byEntry and key
// slots, new tail slots in each view — so a web that Snapshot returned
// before the call never sees its writes. A canceled ctx leaves w
// half-extended; callers drop it.
func (w *Web) extend(ctx context.Context, start, workers int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// A no-op for interpreter- or loader-produced entries.
	(&trace.Trace{Entries: w.Trace.Entries[start:]}).EnsureSyms()
	batch := len(w.Trace.Entries) - start
	w.byEntry = append(w.byEntry, make([][]Name, batch)...)
	w.keys = append(w.keys, make([]uint64, batch)...)
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
		if batch < parallelBuildThreshold {
			workers = 1
		}
	}
	if workers > batch {
		workers = batch
	}
	if workers <= 1 {
		s := &buildShard{lo: start, hi: len(w.Trace.Entries), objects: w.objects}
		s.scan(ctx, w, w.views)
		w.arenas = append(w.arenas, s.arena)
		return s.err
	}

	// Contiguous shards, remainder spread over the first few.
	shards := make([]*buildShard, workers)
	per, rem := batch/workers, batch%workers
	lo := start
	for i := range shards {
		hi := lo + per
		if i < rem {
			hi++
		}
		shards[i] = &buildShard{lo: lo, hi: hi,
			counts: make(map[Name]int), objects: make(map[trace.Loc]ObjectInfo)}
		lo = hi
	}
	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func(s *buildShard) {
			defer wg.Done()
			s.scan(ctx, w, nil)
		}(s)
	}
	wg.Wait()
	for _, s := range shards {
		if s.err != nil {
			return s.err
		}
		w.arenas = append(w.arenas, s.arena)
	}

	// Merge. offsets[i][n] depends only on each view's current length and
	// the counts of shards before i, never on map iteration order, so the
	// layout is deterministic.
	totals := make(map[Name]int)
	offsets := make([]map[Name]int, len(shards))
	for i, s := range shards {
		offsets[i] = make(map[Name]int, len(s.counts))
		for n, c := range s.counts {
			v := w.views[n]
			if v == nil {
				v = &View{Name: n}
				w.views[n] = v
			}
			offsets[i][n] = len(v.EIDs) + totals[n]
			totals[n] += c
		}
	}
	for n, c := range totals {
		v := w.views[n]
		v.EIDs = append(v.EIDs, make([]trace.EntryID, c)...)
	}
	// Objects: first sighting wins. Merging whole shards in range order
	// makes "first" mean first in the trace, exactly as the serial half.
	for _, s := range shards {
		for loc, info := range s.objects {
			if _, seen := w.objects[loc]; !seen {
				w.objects[loc] = info
			}
		}
	}

	for i, s := range shards {
		wg.Add(1)
		go func(s *buildShard, next map[Name]int) {
			defer wg.Done()
			s.fill(ctx, w, next)
		}(s, offsets[i])
	}
	wg.Wait()
	for _, s := range shards {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// buildShard is one contiguous entry range's pass of extend: its own
// name arena (byEntry slices point into it, so it outlives the build),
// and, in the sharded half, per-view membership counts and first-seen
// object info for the merge.
type buildShard struct {
	lo, hi  int // entry index range [lo, hi)
	arena   []Name
	counts  map[Name]int
	objects map[trace.Loc]ObjectInfo
	err     error
}

// scan keys every entry of the shard, computes its names into the shard
// arena (exact-sized by a local count), links byEntry, and notes objects.
// With views set (the serial half) it appends each entry to its views
// directly; a sharded scan passes nil and tallies per-view counts
// instead. byEntry and keys are shared across shards but each entry id
// is written by exactly one shard.
func (s *buildShard) scan(ctx context.Context, w *Web, views map[Name]*View) {
	entries := w.Trace.Entries
	total := 0
	for i := s.lo; i < s.hi; i++ {
		total += nameCount(&entries[i])
		w.keys[i] = trace.EventClassHash(&entries[i])
	}
	s.arena = make([]Name, 0, total)
	for i := s.lo; i < s.hi; i++ {
		if i&buildPollMask == 0 {
			if err := ctx.Err(); err != nil {
				s.err = err
				return
			}
		}
		e := &entries[i]
		if e.Event.Kind == trace.KindEOF {
			continue
		}
		off := len(s.arena)
		s.arena = appendNames(s.arena, e)
		names := s.arena[off:len(s.arena):len(s.arena)]
		w.byEntry[e.EID] = names
		for _, n := range names {
			if views == nil {
				s.counts[n]++
				continue
			}
			v := views[n]
			if v == nil {
				v = &View{Name: n}
				views[n] = v
			}
			v.EIDs = append(v.EIDs, e.EID)
		}
		noteObject(s.objects, e.Event.Target, e.EID)
		noteObject(s.objects, e.Self, e.EID)
	}
}

// fill is the sharded half's second pass: write the shard's entry ids
// into each view's pre-sized EIDs slice, starting at the shard's offset.
// Shards write disjoint index ranges of every view, so no
// synchronization is needed, and concatenating contiguous shards in
// order preserves the ascending-entry-id invariant of View.EIDs.
func (s *buildShard) fill(ctx context.Context, w *Web, next map[Name]int) {
	for i := s.lo; i < s.hi; i++ {
		if i&buildPollMask == 0 {
			if err := ctx.Err(); err != nil {
				s.err = err
				return
			}
		}
		eid := w.Trace.Entries[i].EID
		for _, n := range w.byEntry[eid] {
			pos := next[n]
			w.views[n].EIDs[pos] = eid
			next[n] = pos + 1
		}
	}
}

func noteObject(objects map[trace.Loc]ObjectInfo, r trace.Repr, eid trace.EntryID) {
	if r.Loc == trace.NoLoc {
		return
	}
	if _, seen := objects[r.Loc]; !seen {
		objects[r.Loc] = ObjectInfo{Loc: r.Loc, Class: r.Class, Seq: r.Seq, FirstEID: eid}
	}
}

// nameCount returns how many view names an entry maps to, mirroring
// appendNames.
func nameCount(e *trace.Entry) int {
	if e.Event.Kind == trace.KindEOF {
		return 0
	}
	n := 1 // thread view
	if e.MethodSym != trace.NoSym {
		n++
	}
	if _, ok := targetKey(&e.Event); ok {
		n++
	}
	if e.Self.Loc != trace.NoLoc {
		n++
	}
	return n
}

// appendNames appends the view names of an entry — the union of the
// per-type mapping functions ωτ (Fig. 7) — to dst.
func appendNames(dst []Name, e *trace.Entry) []Name {
	dst = append(dst, ThreadName(e.TID))
	if e.MethodSym != trace.NoSym {
		dst = append(dst, Name{Method, uint64(e.MethodSym)})
	}
	if n, ok := targetKey(&e.Event); ok {
		dst = append(dst, n)
	}
	if e.Self.Loc != trace.NoLoc {
		dst = append(dst, ActiveName(e.Self.Loc))
	}
	return dst
}

// MapEntry computes the set of view names an entry belongs to.
// Hand-built entries without interned symbols work too: the two Sym
// fields the mapping depends on are backfilled on the local copy (both
// live directly in the Entry value, so the caller's entry — including
// its shared Args/Stack storage — is never written).
func MapEntry(e trace.Entry) []Name {
	e.MethodSym = trace.EnsureSym(e.MethodSym, e.Method)
	e.Event.Target.ClassSym = trace.EnsureSym(e.Event.Target.ClassSym, e.Event.Target.Class)
	return appendNames(make([]Name, 0, 4), &e)
}

// symString is the interned symbol of the class name "String", resolved
// lazily (interning in an init racing other packages' inits is fine, but
// there is no need).
var symString = trace.Intern("String")

// targetKey implements ωTO: the target object's location for field, method
// and creation events. String value objects, which have no location, are
// grouped by value (Java strings are heap objects; ours are primitives).
// Other primitives get no target object view.
func targetKey(ev *trace.Event) (Name, bool) {
	switch ev.Kind {
	case trace.KindGet, trace.KindSet, trace.KindCall, trace.KindReturn, trace.KindInit:
		t := &ev.Target
		if t.Loc != trace.NoLoc {
			return LocName(t.Loc), true
		}
		if t.ClassSym == symString && t.HasValue() {
			return StrValueName(t.Hash), true
		}
	}
	return Name{}, false
}
