package views

import (
	"context"
	"fmt"
	"math"

	"repro/internal/trace"
)

// buildPollMask throttles context polls in the build loop to one every
// 8192 entries.
const buildPollMask = 8191

// Build constructs the view web over the trace, applying the view-name
// mapping functions ωτ of Fig. 7 to every entry. The per-entry link
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
	w, _ := BuildCtx(context.Background(), t)
	return w
}

// BuildCtx is Build with cancellation: ctx is polled periodically during
// the construction pass, and a canceled context aborts the build with
// the context's error. Servers building webs over multi-million-entry
// traces use this to kill requests whose clients have gone away. A
// batch build is an incremental one that starts from the empty web:
// both run the one extend pass.
func BuildCtx(ctx context.Context, t *trace.Trace) (*Web, error) {
	w := newWeb(t)
	if err := w.extend(ctx, 0); err != nil {
		return nil, err
	}
	return w, nil
}

// newWeb returns the empty web over t; extend indexes its entries.
func newWeb(t *trace.Trace) *Web {
	return &Web{
		Trace:   t,
		ids:     make(map[Name]ViewID),
		objects: make(map[trace.Loc]ObjectInfo),
	}
}

// maxWebEntries bounds the entries a web indexes, so that every view id
// and position fits its int32 in Link: a view holds at most every entry,
// and an entry opens at most four views.
const maxWebEntries = math.MaxInt32 / 4

// extend indexes the entries w.Trace.Entries[start:], which the caller
// has already appended, in one linear pass of the ω mappings: a counting
// pass keys every entry and sizes one new arena exactly, then each entry
// gets its links in that arena — a view first seen takes the next id —
// each link records the view's length just before the entry is appended
// to it, and the objects first seen in the entry are recorded. Build
// runs it once from start 0; IncrementalBuilder runs it once per
// appended batch.
//
// Every structure grows append-only — a new arena, new byEntry and key
// slots, new views and new tail slots in each view — so a web that
// Snapshot returned before the call never sees its writes. A canceled
// ctx leaves w half-extended; callers drop it.
func (w *Web) extend(ctx context.Context, start int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	entries := w.Trace.Entries
	if len(entries) > maxWebEntries {
		return fmt.Errorf("views: trace of %d entries exceeds the web's %d-entry bound", len(entries), maxWebEntries)
	}
	// A no-op for interpreter- or loader-produced entries.
	(&trace.Trace{Entries: entries[start:]}).EnsureSyms()
	batch := len(entries) - start
	w.byEntry = append(w.byEntry, make([][]Link, batch)...)
	w.keys = append(w.keys, make([]uint64, batch)...)
	total := 0
	for i := start; i < len(entries); i++ {
		total += nameCount(&entries[i])
		w.keys[i] = trace.EventClassHash(&entries[i])
	}
	arena := make([]Link, 0, total)
	ids, objects := w.ids, w.objects
	var names [4]Name
	for i := start; i < len(entries); i++ {
		if i&buildPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		e := &entries[i]
		if e.Event.Kind == trace.KindEOF {
			continue
		}
		off := len(arena)
		for _, n := range appendNames(names[:0], e) {
			id, ok := ids[n]
			if !ok {
				id = ViewID(len(w.views))
				ids[n] = id
				w.views = append(w.views, View{Name: n})
			}
			v := &w.views[id]
			arena = append(arena, Link{View: id, Pos: int32(len(v.EIDs))})
			v.EIDs = append(v.EIDs, e.EID)
		}
		w.byEntry[e.EID] = arena[off:len(arena):len(arena)]
		noteObject(objects, e.Event.Target, e.EID)
		noteObject(objects, e.Self, e.EID)
	}
	w.arenas = append(w.arenas, arena)
	return nil
}

func noteObject(objects map[trace.Loc]ObjectInfo, r trace.Repr, eid trace.EntryID) {
	if r.Loc == trace.NoLoc {
		return
	}
	if _, seen := objects[r.Loc]; !seen {
		objects[r.Loc] = ObjectInfo{Loc: r.Loc, Class: r.Class, Seq: r.Seq, FirstEID: eid}
	}
}

// nameCount returns how many view names (and so links) an entry maps
// to, mirroring appendNames.
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
// per-type mapping functions ωτ (Fig. 7) — to dst, thread view first.
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
