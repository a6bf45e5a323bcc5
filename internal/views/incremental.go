package views

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"repro/internal/trace"
)

// IncrementalBuilder grows a view web as trace segments arrive — the
// analysis side of live capture. A streaming session appends each
// decoded segment; at any moment Snapshot returns a Web over everything
// appended so far that is semantically identical to a from-scratch
// BuildCtx over the same entries (see Equivalent), so a live
// session's web is always query-ready: /run/{analysis} can analyze a
// still-running program.
//
// Concurrency contract: the builder itself is NOT safe for concurrent
// use — callers (corpus.Session) serialize Append and Snapshot under one
// lock. The webs Snapshot returns, however, remain safe to read while
// later Appends extend the builder: each Append runs the same serial
// extend pass as a batch build over just the new entries, which grows
// every structure append-only, and Snapshot copies the view list and the
// id and object maps, so a snapshot's visible prefix is never rewritten.
// That is what lets a long-running diff proceed against a session that
// keeps streaming.
type IncrementalBuilder struct {
	w *Web
}

// NewIncrementalBuilder returns an empty builder for a trace with the
// given name.
func NewIncrementalBuilder(name string) *IncrementalBuilder {
	return &IncrementalBuilder{w: newWeb(&trace.Trace{Name: name})}
}

// Len returns the number of entries appended so far.
func (b *IncrementalBuilder) Len() int { return b.w.Trace.Len() }

// Name returns the trace name snapshots carry.
func (b *IncrementalBuilder) Name() string { return b.w.Trace.Name }

// Append extends the web with one segment of entries. Entry ids must
// continue the dense 0..n-1 numbering: entries below the current
// high-water mark are skipped (idempotent re-delivery after a dropped
// stream), an entry past it is an error. Entries are copied in, so the
// caller may reuse its batch slice.
func (b *IncrementalBuilder) Append(entries []trace.Entry) error {
	start := b.Len()
	// Drop the already-applied prefix of a re-delivered batch.
	for len(entries) > 0 && int(entries[0].EID) < start {
		entries = entries[1:]
	}
	if len(entries) == 0 {
		return nil
	}
	for i := range entries {
		if want := start + i; int(entries[i].EID) != want {
			return fmt.Errorf("views: incremental append: entry id %d out of order (want %d)",
				entries[i].EID, want)
		}
	}
	b.w.Trace.Entries = append(b.w.Trace.Entries, entries...)
	// Appends are bounded by the batch size, so cancellation is the
	// session's concern, not the builder's.
	return b.w.extend(context.Background(), start)
}

// SnapshotTrace returns the trace over everything appended so far. The
// entries slice is capped at the current length, so later Appends —
// which only write past it — never alias what a reader sees.
func (b *IncrementalBuilder) SnapshotTrace() *trace.Trace {
	n := b.Len()
	return &trace.Trace{Name: b.Name(), Entries: b.w.Trace.Entries[:n:n]}
}

// Snapshot returns a query-ready Web over everything appended so far.
// The web is immutable from the reader's perspective: the view list, the
// name→id map and the object index are copied (O(views + objects)),
// while the heavy structures — arenas, entry-id lists, the link table,
// the class keys — are shared with the builder via length-capped slices
// whose visible prefixes are never rewritten by later Appends. Ids are
// append-only, so a snapshot's view ids name the same views in every
// later snapshot.
func (b *IncrementalBuilder) Snapshot() *Web {
	w := b.w
	vs := make([]View, len(w.views))
	for i, v := range w.views {
		vs[i] = View{Name: v.Name, EIDs: v.EIDs[:len(v.EIDs):len(v.EIDs)]}
	}
	return &Web{
		Trace:   b.SnapshotTrace(),
		ids:     maps.Clone(w.ids),
		views:   vs,
		byEntry: w.byEntry[:len(w.byEntry):len(w.byEntry)],
		arenas:  w.arenas[:len(w.arenas):len(w.arenas)],
		objects: maps.Clone(w.objects),
		keys:    w.keys[:len(w.keys):len(w.keys)],
	}
}

// Equivalent reports whether two webs are semantically identical: same
// trace entries, same views under the same ids with the same entry-id
// lists, same per-entry links (view id and position) and class keys,
// same object index, same MemBytes. Arena chunking — one arena per
// incremental batch — is an implementation detail and deliberately not
// compared, which is why incremental-vs-batch equivalence checks use
// this instead of reflect.DeepEqual on the Web.
// It returns nil on equivalence or an error naming the first difference.
func Equivalent(a, c *Web) error {
	if a.Trace.Len() != c.Trace.Len() {
		return fmt.Errorf("entry counts differ: %d vs %d", a.Trace.Len(), c.Trace.Len())
	}
	// Entry *contents* matter, not just counts: the canonical content
	// digest covers every version-stable field of every entry, so a
	// builder that ever corrupted a payload while copying or interning
	// batches cannot pass. (One encoding pass per side — this is a
	// verification helper, not a hot path.)
	if ad, cd := a.Trace.ComputeDigest(), c.Trace.ComputeDigest(); ad != cd {
		return fmt.Errorf("trace contents differ: digest %s vs %s", ad, cd)
	}
	if len(a.views) != len(c.views) || len(a.ids) != len(c.ids) {
		return fmt.Errorf("view counts differ: %d vs %d", len(a.views), len(c.views))
	}
	for id := range a.views {
		av, cv := &a.views[id], &c.views[id]
		if av.Name != cv.Name {
			return fmt.Errorf("view id %d names differ: %v vs %v", id, av.Name, cv.Name)
		}
		if got, ok := a.ids[av.Name]; !ok || int(got) != id {
			return fmt.Errorf("view %v: id %d, name maps to %d", av.Name, id, got)
		}
		if got, ok := c.ids[cv.Name]; !ok || int(got) != id {
			return fmt.Errorf("view %v: id %d, name maps to %d", cv.Name, id, got)
		}
		if !slices.Equal(av.EIDs, cv.EIDs) {
			return fmt.Errorf("view %v entry ids differ", av.Name)
		}
	}
	if len(a.byEntry) != len(c.byEntry) {
		return fmt.Errorf("link table lengths differ: %d vs %d", len(a.byEntry), len(c.byEntry))
	}
	for eid := range a.byEntry {
		if ae, ce := a.byEntry[eid], c.byEntry[eid]; !slices.Equal(ae, ce) {
			return fmt.Errorf("entry %d links differ: %v vs %v", eid, ae, ce)
		}
	}
	if len(a.keys) != len(c.keys) {
		return fmt.Errorf("class key counts differ: %d vs %d", len(a.keys), len(c.keys))
	}
	for eid := range a.keys {
		if a.keys[eid] != c.keys[eid] {
			return fmt.Errorf("entry %d class keys differ: %x vs %x", eid, a.keys[eid], c.keys[eid])
		}
	}
	if len(a.objects) != len(c.objects) {
		return fmt.Errorf("object counts differ: %d vs %d", len(a.objects), len(c.objects))
	}
	for loc, ai := range a.objects {
		if ci, ok := c.objects[loc]; !ok || ai != ci {
			return fmt.Errorf("object l%d differs: %+v vs %+v", loc, ai, c.objects[loc])
		}
	}
	if am, cm := a.MemBytes(), c.MemBytes(); am != cm {
		return fmt.Errorf("MemBytes differ: %d vs %d", am, cm)
	}
	return nil
}
