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

// BuildCtxOpts is BuildCtx with explicit options. With Workers > 1 the
// construction runs in two parallel passes: the entry scan is sharded
// into contiguous ranges, each producing its own name arena and per-view
// counts; the merge sizes every view's entry-id list exactly from the
// shard counts; then the shards fill their disjoint slice ranges
// concurrently. The web that comes out is identical — same views, same
// orderings, same MemBytes — to the serial one.
func BuildCtxOpts(ctx context.Context, t *trace.Trace, opts BuildOptions) (*Web, error) {
	t.EnsureSyms() // no-op for interpreter- or loader-produced traces
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
		if len(t.Entries) < parallelBuildThreshold {
			workers = 1
		}
	}
	if workers > len(t.Entries) {
		workers = len(t.Entries)
	}
	if workers <= 1 {
		return buildSerial(ctx, t)
	}
	return buildParallel(ctx, t, workers)
}

// buildSerial is the single-goroutine pass: count, then fill one arena.
func buildSerial(ctx context.Context, t *trace.Trace) (*Web, error) {
	w := &Web{
		Trace:   t,
		views:   make(map[Name]*View),
		byEntry: make([][]Name, len(t.Entries)),
		objects: make(map[trace.Loc]ObjectInfo),
		keys:    make([]uint64, len(t.Entries)),
	}
	// First pass: size the arena exactly, so slices into it stay valid,
	// and key every entry.
	total := 0
	for i := range t.Entries {
		total += nameCount(&t.Entries[i])
		w.keys[i] = trace.EventClassHash(&t.Entries[i])
	}
	arena := make([]Name, 0, total)
	for i := range t.Entries {
		if i&buildPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		e := &t.Entries[i]
		if e.Event.Kind == trace.KindEOF {
			continue
		}
		start := len(arena)
		arena = appendNames(arena, e)
		names := arena[start:len(arena):len(arena)]
		w.byEntry[e.EID] = names
		for _, n := range names {
			v := w.views[n]
			if v == nil {
				v = &View{Name: n}
				w.views[n] = v
			}
			v.EIDs = append(v.EIDs, e.EID)
		}
		noteObject(w.objects, e.Event.Target, e.EID)
		noteObject(w.objects, e.Self, e.EID)
	}
	w.arenas = [][]Name{arena}
	return w, nil
}

// buildShard is one contiguous entry range's contribution to the web:
// its own name arena (byEntry slices point into it, so it outlives the
// build), per-view membership counts, and first-seen object info.
type buildShard struct {
	lo, hi  int // entry index range [lo, hi)
	arena   []Name
	counts  map[Name]int
	objects map[trace.Loc]ObjectInfo
	err     error
}

// scan is the first parallel pass: key every entry, compute its names
// into the shard arena (exact-sized by a local count), link byEntry, and
// tally per-view counts. byEntry and keys are shared across shards but
// each entry id is written by exactly one shard.
func (s *buildShard) scan(ctx context.Context, t *trace.Trace, byEntry [][]Name, keys []uint64) {
	total := 0
	for i := s.lo; i < s.hi; i++ {
		total += nameCount(&t.Entries[i])
		keys[i] = trace.EventClassHash(&t.Entries[i])
	}
	s.arena = make([]Name, 0, total)
	s.counts = make(map[Name]int)
	s.objects = make(map[trace.Loc]ObjectInfo)
	for i := s.lo; i < s.hi; i++ {
		if i&buildPollMask == 0 {
			if err := ctx.Err(); err != nil {
				s.err = err
				return
			}
		}
		e := &t.Entries[i]
		if e.Event.Kind == trace.KindEOF {
			continue
		}
		start := len(s.arena)
		s.arena = appendNames(s.arena, e)
		names := s.arena[start:len(s.arena):len(s.arena)]
		byEntry[e.EID] = names
		for _, n := range names {
			s.counts[n]++
		}
		noteObject(s.objects, e.Event.Target, e.EID)
		noteObject(s.objects, e.Self, e.EID)
	}
}

// fill is the second parallel pass: write the shard's entry ids into
// each view's pre-sized EIDs slice, starting at the shard's offset.
// Shards write disjoint index ranges of every view, so no
// synchronization is needed, and concatenating contiguous shards in
// order preserves the ascending-entry-id invariant of View.EIDs.
func (s *buildShard) fill(ctx context.Context, t *trace.Trace, w *Web, next map[Name]int) {
	for i := s.lo; i < s.hi; i++ {
		if i&buildPollMask == 0 {
			if err := ctx.Err(); err != nil {
				s.err = err
				return
			}
		}
		eid := t.Entries[i].EID
		for _, n := range w.byEntry[eid] {
			pos := next[n]
			w.views[n].EIDs[pos] = eid
			next[n] = pos + 1
		}
	}
}

func buildParallel(ctx context.Context, t *trace.Trace, workers int) (*Web, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w := &Web{
		Trace:   t,
		views:   make(map[Name]*View),
		byEntry: make([][]Name, len(t.Entries)),
		objects: make(map[trace.Loc]ObjectInfo),
		keys:    make([]uint64, len(t.Entries)),
	}
	// Contiguous shards, remainder spread over the first few.
	shards := make([]*buildShard, workers)
	per, rem := len(t.Entries)/workers, len(t.Entries)%workers
	lo := 0
	for i := range shards {
		hi := lo + per
		if i < rem {
			hi++
		}
		shards[i] = &buildShard{lo: lo, hi: hi}
		lo = hi
	}

	// Pass 1: sharded entry scan.
	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func(s *buildShard) {
			defer wg.Done()
			s.scan(ctx, t, w.byEntry, w.keys)
		}(s)
	}
	wg.Wait()
	w.arenas = make([][]Name, len(shards))
	for i, s := range shards {
		if s.err != nil {
			return nil, s.err
		}
		w.arenas[i] = s.arena
	}

	// Merge: size every view exactly from the shard counts and record
	// where each shard's run starts inside each view. offsets[i][n] only
	// depends on the counts of shards before i, never on map iteration
	// order, so the layout is deterministic.
	totals := make(map[Name]int)
	offsets := make([]map[Name]int, len(shards))
	for i, s := range shards {
		offsets[i] = make(map[Name]int, len(s.counts))
		for n, c := range s.counts {
			offsets[i][n] = totals[n]
			totals[n] += c
		}
	}
	for n, c := range totals {
		w.views[n] = &View{Name: n, EIDs: make([]trace.EntryID, c)}
	}
	// Objects: first sighting wins. Merging whole shards in range order
	// makes "first" mean first in the trace, exactly as the serial pass.
	for _, s := range shards {
		for loc, info := range s.objects {
			if _, seen := w.objects[loc]; !seen {
				w.objects[loc] = info
			}
		}
	}

	// Pass 2: fill every view's arena concurrently.
	for i, s := range shards {
		wg.Add(1)
		go func(s *buildShard, next map[Name]int) {
			defer wg.Done()
			s.fill(ctx, t, w, next)
		}(s, offsets[i])
	}
	wg.Wait()
	for _, s := range shards {
		if s.err != nil {
			return nil, s.err
		}
	}
	return w, nil
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
