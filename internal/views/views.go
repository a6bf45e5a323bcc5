// Package views implements the semantic-views trace abstraction of §2.4:
// named projections over execution traces that selectively aggregate
// events with shared semantic traits. Four view types are provided —
// thread views (TH), method views (CM), target object views (TO), and
// active object views (AO) — linked into a navigable "web" by retaining
// the indices of the original trace inside each projected view.
//
// View names are keyed by integers (thread ids, interned method symbols,
// heap locations, value hashes), never by formatted strings: the web over
// a trace of n entries is built with O(n) word-sized map operations and
// no per-entry string formatting.
package views

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// Type enumerates the view types (τ in Fig. 7).
type Type uint8

const (
	// Thread views contain the events of one thread, in execution order.
	Thread Type = iota
	// Method views contain the events that occur while one fully
	// qualified method is at the top of the call stack.
	Method
	// TargetObject views contain the events in which one object is the
	// target of a method call, field access, or creation.
	TargetObject
	// ActiveObject views contain the events that occur while one object
	// is on top of the call stack (the executing receiver).
	ActiveObject
)

var typeNames = [...]string{"TH", "CM", "TO", "AO"}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ParseType resolves a view-type mnemonic (TH, CM, TO, AO).
func ParseType(s string) (Type, bool) {
	for i, n := range typeNames {
		if n == s {
			return Type(i), true
		}
	}
	return 0, false
}

// strValueBit tags TargetObject keys that identify a value object by its
// value hash rather than a heap location (heap locations are small
// positive integers; bit 63 is never set for them).
const strValueBit = uint64(1) << 63

// Name identifies a specific view: ⟨τ, ν⟩ of Fig. 7. Key is an integer in
// a per-type keyspace: the thread id for TH, the interned method symbol
// for CM, the heap location (or tagged value hash) for TO, and the heap
// location for AO.
type Name struct {
	Type Type
	Key  uint64
}

// String renders the ⟨τ,ν⟩ notation. Like KeyString it formats without
// fmt: rendering shows up in allocation profiles whenever results are
// serialized (view listings, diff reports), and fmt's reflection-driven
// path boxes every argument.
func (n Name) String() string {
	b := make([]byte, 0, 24)
	b = append(b, "⟨"...)
	b = append(b, n.Type.String()...)
	b = append(b, ',')
	b = n.appendKey(b)
	b = append(b, "⟩"...)
	return string(b)
}

// KeyString renders the key in the human-readable notation used by the
// CLI: a decimal thread id, a qualified method name, "l<loc>" for heap
// objects, or "str:<hex hash>" for value objects.
func (n Name) KeyString() string {
	return string(n.appendKey(make([]byte, 0, 20)))
}

// appendKey appends KeyString's rendering to b with plain integer/hex
// formatting — one output allocation per rendered name, no fmt.
func (n Name) appendKey(b []byte) []byte {
	switch n.Type {
	case Thread:
		return strconv.AppendUint(b, n.Key, 10)
	case Method:
		return append(b, trace.SymStr(trace.Sym(n.Key))...)
	case TargetObject:
		if n.Key&strValueBit != 0 {
			b = append(b, "str:"...)
			return strconv.AppendUint(b, n.Key&^strValueBit, 16)
		}
		b = append(b, 'l')
		return strconv.AppendUint(b, n.Key, 10)
	case ActiveObject:
		b = append(b, 'l')
		return strconv.AppendUint(b, n.Key, 10)
	}
	return strconv.AppendUint(b, n.Key, 10)
}

// ThreadName returns the thread view name for a thread id.
func ThreadName(tid trace.ThreadID) Name { return Name{Thread, uint64(tid)} }

// MethodName returns the method view name for a qualified method
// signature, interning it if needed.
func MethodName(qualified string) Name {
	return Name{Method, uint64(trace.Intern(qualified))}
}

// LocName returns the target-object view name for a heap location.
func LocName(l trace.Loc) Name { return Name{TargetObject, uint64(l)} }

// ActiveName returns the active-object view name for a heap location.
func ActiveName(l trace.Loc) Name { return Name{ActiveObject, uint64(l)} }

// StrValueName returns the target-object view name grouping value objects
// by their value hash.
func StrValueName(hash uint64) Name {
	return Name{TargetObject, strValueBit | (hash &^ strValueBit)}
}

// ParseName parses the CLI notation produced by KeyString back into a
// view name: TH takes a decimal tid, CM a qualified method name, TO
// "l<loc>" or "str:<hex>", AO "l<loc>".
func ParseName(typ Type, key string) (Name, error) {
	switch typ {
	case Thread:
		tid, err := strconv.ParseUint(key, 10, 32)
		if err != nil {
			return Name{}, fmt.Errorf("views: thread key %q: %w", key, err)
		}
		return Name{Thread, tid}, nil
	case Method:
		sym, ok := trace.Symbols.Lookup(key)
		if !ok {
			return Name{}, fmt.Errorf("views: unknown method %q", key)
		}
		return Name{Method, uint64(sym)}, nil
	case TargetObject, ActiveObject:
		if rest, ok := strings.CutPrefix(key, "str:"); ok && typ == TargetObject {
			h, err := strconv.ParseUint(rest, 16, 64)
			if err != nil {
				return Name{}, fmt.Errorf("views: value key %q: %w", key, err)
			}
			return StrValueName(h), nil
		}
		rest, ok := strings.CutPrefix(key, "l")
		if !ok {
			return Name{}, fmt.Errorf("views: object key %q must be l<loc> or str:<hex>", key)
		}
		l, err := strconv.ParseUint(rest, 10, 63)
		if err != nil {
			return Name{}, fmt.Errorf("views: object key %q: %w", key, err)
		}
		return Name{typ, l}, nil
	}
	return Name{}, fmt.Errorf("views: unknown view type %v", typ)
}

// View is one projection: the entry ids (ascending) of the base trace
// that belong to the view. Retaining base-trace indices is what links
// views to each other (§2.4).
type View struct {
	Name Name
	EIDs []trace.EntryID
}

// Len returns the number of entries in the view.
func (v *View) Len() int { return len(v.EIDs) }

// Window returns the entry ids within ±delta positions of position pos
// in the view — the fixed-size window win(η,δ) of Fig. 9, applied to a
// projected view rather than the raw trace. It returns nil for a
// position outside the view.
func (v *View) Window(pos, delta int) []trace.EntryID {
	if pos < 0 || pos >= len(v.EIDs) {
		return nil
	}
	// Clamp by comparing delta against the room on each side: pos+delta
	// itself would wrap negative for a delta near MaxInt.
	lo, hi := 0, len(v.EIDs)
	if delta < pos {
		lo = pos - delta
	}
	if delta < hi-1-pos {
		hi = pos + delta + 1
	}
	return v.EIDs[lo:hi]
}

// ViewID is a view's dense id within a web: views are numbered 0, 1, 2,
// … in the order their first entry appears in the trace. Ids are
// append-only, so an id taken from one IncrementalBuilder snapshot names
// the same view in every later snapshot, and a batch Build numbers the
// views exactly as an incremental one does.
type ViewID int32

// Link is one entry's membership of one view: the view's id and the
// entry's position in it. An entry's links list its thread view first.
type Link struct {
	View ViewID
	Pos  int32
}

// ObjectInfo summarizes one heap object observed in a trace.
type ObjectInfo struct {
	Loc      trace.Loc
	Class    string
	Seq      int
	FirstEID trace.EntryID
}

// Web is the complete linked structure of all views over one trace.
type Web struct {
	Trace   *trace.Trace
	ids     map[Name]ViewID
	views   []View   // by ViewID
	byEntry [][]Link // links per entry id (the union of the ω mappings)
	arenas  [][]Link // backing storage for byEntry slices, one per extend batch
	objects map[trace.Loc]ObjectInfo
	keys    []uint64 // =e class key per entry id (trace.EventClassHash)
}

// ClassKeys returns trace.EventClassHash of every entry, indexed by entry
// id and computed at build. Entries with different keys are never =e,
// so a differ compares keys before calling trace.EventEqual. The slice
// is shared; callers must not write it.
func (w *Web) ClassKeys() []uint64 { return w.keys }

// View returns the view with the given name, or nil.
func (w *Web) View(n Name) *View {
	if id, ok := w.ids[n]; ok {
		return &w.views[id]
	}
	return nil
}

// ID returns the id of the view with the given name.
func (w *Web) ID(n Name) (ViewID, bool) {
	id, ok := w.ids[n]
	return id, ok
}

// ViewAt returns the view with id id, or nil for an id the web does not
// hold. It is View without the name lookup, for hot paths that carry
// ids.
func (w *Web) ViewAt(id ViewID) *View {
	if id < 0 || int(id) >= len(w.views) {
		return nil
	}
	return &w.views[id]
}

// NumViews returns the number of views; ids run from 0 to NumViews()-1.
func (w *Web) NumViews() int { return len(w.views) }

// Links returns the links of entry eid: one per view it belongs to, its
// thread view first. EOF entries have none. The slice is shared; callers
// must not write it.
func (w *Web) Links(eid trace.EntryID) []Link {
	if eid < 0 || int(eid) >= len(w.byEntry) {
		return nil
	}
	return w.byEntry[eid]
}

// NamesOf returns the names of the views entry eid belongs to, thread
// view first. It allocates the list; hot paths read Links.
func (w *Web) NamesOf(eid trace.EntryID) []Name {
	links := w.Links(eid)
	if len(links) == 0 {
		return nil
	}
	out := make([]Name, len(links))
	for i, l := range links {
		out[i] = w.views[l.View].Name
	}
	return out
}

// Names returns all view names, sorted (deterministic iteration).
func (w *Web) Names() []Name {
	out := make([]Name, len(w.views))
	for i := range w.views {
		out[i] = w.views[i].Name
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		if out[i].Type == Method {
			// Method views sort by name, not symbol id, for stable output.
			return trace.SymStr(trace.Sym(out[i].Key)) < trace.SymStr(trace.Sym(out[j].Key))
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// PosIn returns the position of entry eid inside view n. This is the
// navigation operation: "the trace index found in the entry can be used
// to navigate from the entry found in one view to its position in
// another" (§2.4). Every link carries its position, so PosIn is a name
// lookup plus a scan of the entry's (at most four) links.
func (w *Web) PosIn(n Name, eid trace.EntryID) (int, bool) {
	id, ok := w.ids[n]
	if !ok {
		return 0, false
	}
	for _, l := range w.Links(eid) {
		if l.View == id {
			return int(l.Pos), true
		}
	}
	return 0, false
}

// Window returns the entry ids of view n within ±delta positions of
// position pos in that view (PosIn gives an entry's position); see
// View.Window. It returns nil for a missing view or a position outside
// it.
func (w *Web) Window(n Name, pos, delta int) []trace.EntryID {
	v := w.View(n)
	if v == nil {
		return nil
	}
	return v.Window(pos, delta)
}

// Entries materializes the trace entries of a view (testing/CLI helper).
func (w *Web) Entries(n Name) []trace.Entry {
	v := w.View(n)
	if v == nil {
		return nil
	}
	out := make([]trace.Entry, len(v.EIDs))
	for i, id := range v.EIDs {
		out[i] = w.Trace.Entries[id]
	}
	return out
}

// Object returns what is known about a heap location.
func (w *Web) Object(l trace.Loc) (ObjectInfo, bool) {
	o, ok := w.objects[l]
	return o, ok
}

// Counts tallies views by type — the "Number of Views" columns of Table 2.
type Counts struct {
	Total        int
	Thread       int
	Method       int
	TargetObject int
	ActiveObject int
}

// Count computes view counts for the web.
func (w *Web) Count() Counts {
	var c Counts
	for i := range w.views {
		c.Total++
		switch w.views[i].Name.Type {
		case Thread:
			c.Thread++
		case Method:
			c.Method++
		case TargetObject:
			c.TargetObject++
		case ActiveObject:
			c.ActiveObject++
		}
	}
	return c
}

// ThreadView returns the thread view for a tid, or nil.
func (w *Web) ThreadView(tid trace.ThreadID) *View {
	return w.View(ThreadName(tid))
}

// Per-element sizes of the web's backing structures, for MemBytes. A
// link is two int32s; a View is a Name (a uint8 + uint64 padded to 16
// bytes) plus its EIDs slice header; a name→id map slot is a Name key
// and an int32 id padded to 24 bytes; a View's EIDs are word-sized entry
// ids; ObjectInfo carries a string header, three words, and padding.
const (
	linkBytes       = 8
	viewBytes       = 40
	viewIDBytes     = 24
	sliceHeaderSize = 24
	entryIDBytes    = 8
	objectInfoBytes = 56
	classKeyBytes   = 8
)

// MemBytes accounts the web's own memory — the link arenas, the
// per-entry link table and class keys, every view with its entry-id list
// and name→id slot, and the object index — excluding the underlying
// trace. It counts logical lengths, not allocator capacities, so the
// figure is identical however the web was built (in one batch or many)
// and is the deterministic web term of the differ's Stats.MemBytes.
func (w *Web) MemBytes() int64 {
	var b int64
	for _, a := range w.arenas {
		b += int64(len(a)) * linkBytes
	}
	b += int64(len(w.byEntry)) * sliceHeaderSize
	b += int64(len(w.keys)) * classKeyBytes
	for i := range w.views {
		b += int64(len(w.views[i].EIDs))*entryIDBytes + viewBytes + viewIDBytes
	}
	b += int64(len(w.objects)) * objectInfoBytes
	return b
}
