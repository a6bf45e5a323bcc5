package views

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/trace"
)

// IncrementalBuilder grows a view web as trace segments arrive — the
// analysis side of live capture. A streaming session appends each
// decoded segment; at any moment Snapshot returns a Web over everything
// appended so far that is semantically identical to a from-scratch
// BuildCtxOpts over the same entries (see Equivalent), so a live
// session's web is always query-ready: /diff and /run/{analysis} can
// analyze a still-running program.
//
// Concurrency contract: the builder itself is NOT safe for concurrent
// use — callers (corpus.Session) serialize Append and Snapshot under one
// lock. The webs Snapshot returns, however, remain safe to read while
// later Appends extend the builder: every growing structure is extended
// strictly append-only (new arena chunks, new byEntry rows, new slots at
// the tail of each view's entry-id list, copied view/object maps), so a
// snapshot's visible prefix is never rewritten. That is what lets a
// long-running diff proceed against a session that keeps streaming.
//
// Large batches reuse the PR-4 sharded machinery: the entry scan runs on
// per-shard arenas and the per-view fill writes disjoint ranges, exactly
// like the parallel path of BuildCtxOpts, with every view offset shifted
// by the web built so far.
type IncrementalBuilder struct {
	name    string
	entries []trace.Entry
	arenas  [][]Name
	byEntry [][]Name
	views   map[Name]*View
	objects map[trace.Loc]ObjectInfo
	keys    []uint64
}

// NewIncrementalBuilder returns an empty builder for a trace with the
// given name.
func NewIncrementalBuilder(name string) *IncrementalBuilder {
	return &IncrementalBuilder{
		name:    name,
		views:   make(map[Name]*View),
		objects: make(map[trace.Loc]ObjectInfo),
	}
}

// Len returns the number of entries appended so far.
func (b *IncrementalBuilder) Len() int { return len(b.entries) }

// Name returns the trace name snapshots carry.
func (b *IncrementalBuilder) Name() string { return b.name }

// Append extends the web with one segment of entries. Entry ids must
// continue the dense 0..n-1 numbering: entries below the current
// high-water mark are skipped (idempotent re-delivery after a dropped
// stream), an entry past it is an error. Entries are copied in, so the
// caller may reuse its batch slice.
func (b *IncrementalBuilder) Append(entries []trace.Entry) error {
	// Drop the already-applied prefix of a re-delivered batch.
	for len(entries) > 0 && int(entries[0].EID) < len(b.entries) {
		entries = entries[1:]
	}
	if len(entries) == 0 {
		return nil
	}
	for i := range entries {
		if want := len(b.entries) + i; int(entries[i].EID) != want {
			return fmt.Errorf("views: incremental append: entry id %d out of order (want %d)",
				entries[i].EID, want)
		}
	}
	start := len(b.entries)
	b.entries = append(b.entries, entries...)
	// Intern in place on our own copy; hand-built batches get their Syms
	// here, already-interned ones are a read-only scan.
	(&trace.Trace{Entries: b.entries[start:]}).EnsureSyms()
	for range entries {
		b.byEntry = append(b.byEntry, nil)
		b.keys = append(b.keys, 0)
	}
	if len(entries) >= parallelBuildThreshold {
		b.appendSharded(start)
	} else {
		b.appendSerial(start)
	}
	return nil
}

// appendSerial is the small-batch path: one new exact-sized arena, views
// extended in entry order — the incremental mirror of buildSerial.
func (b *IncrementalBuilder) appendSerial(start int) {
	total := 0
	for i := start; i < len(b.entries); i++ {
		total += nameCount(&b.entries[i])
		b.keys[i] = trace.EventClassHash(&b.entries[i])
	}
	arena := make([]Name, 0, total)
	for i := start; i < len(b.entries); i++ {
		e := &b.entries[i]
		if e.Event.Kind == trace.KindEOF {
			continue
		}
		off := len(arena)
		arena = appendNames(arena, e)
		names := arena[off:len(arena):len(arena)]
		b.byEntry[e.EID] = names
		for _, n := range names {
			v := b.views[n]
			if v == nil {
				v = &View{Name: n}
				b.views[n] = v
			}
			v.EIDs = append(v.EIDs, e.EID)
		}
		noteObject(b.objects, e.Event.Target, e.EID)
		noteObject(b.objects, e.Self, e.EID)
	}
	b.arenas = append(b.arenas, arena)
}

// appendSharded is the large-batch path: the batch is cut into
// contiguous shards that scan concurrently into their own arenas, the
// merge extends every touched view to its exact new length, and the
// shards fill their disjoint ranges concurrently — buildParallel with
// all view offsets based past the web built so far.
func (b *IncrementalBuilder) appendSharded(start int) {
	workers := runtime.GOMAXPROCS(0)
	batch := len(b.entries) - start
	if workers > batch {
		workers = batch
	}
	t := &trace.Trace{Name: b.name, Entries: b.entries}
	shards := make([]*buildShard, workers)
	per, rem := batch/workers, batch%workers
	lo := start
	for i := range shards {
		hi := lo + per
		if i < rem {
			hi++
		}
		shards[i] = &buildShard{lo: lo, hi: hi}
		lo = hi
	}

	// Incremental appends are bounded by the batch size, so cancellation
	// plumbing is the session's concern, not the builder's: the shard
	// scans run under a background context.
	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func(s *buildShard) {
			defer wg.Done()
			s.scan(context.Background(), t, b.byEntry, b.keys)
		}(s)
	}
	wg.Wait()
	for _, s := range shards {
		b.arenas = append(b.arenas, s.arena)
	}

	// Merge: offsets continue from each view's current length, and every
	// touched view's entry-id list grows to its exact final size before
	// the concurrent fill writes the new tail slots.
	totals := make(map[Name]int)
	offsets := make([]map[Name]int, len(shards))
	for i, s := range shards {
		offsets[i] = make(map[Name]int, len(s.counts))
		for n, c := range s.counts {
			v := b.views[n]
			if v == nil {
				v = &View{Name: n}
				b.views[n] = v
			}
			offsets[i][n] = len(v.EIDs) + totals[n]
			totals[n] += c
		}
	}
	for n, c := range totals {
		v := b.views[n]
		v.EIDs = append(v.EIDs, make([]trace.EntryID, c)...)
	}
	for _, s := range shards {
		for loc, info := range s.objects {
			if _, seen := b.objects[loc]; !seen {
				b.objects[loc] = info
			}
		}
	}

	for i, s := range shards {
		wg.Add(1)
		go func(s *buildShard, next map[Name]int) {
			defer wg.Done()
			for j := s.lo; j < s.hi; j++ {
				eid := t.Entries[j].EID
				for _, n := range b.byEntry[eid] {
					pos := next[n]
					b.views[n].EIDs[pos] = eid
					next[n] = pos + 1
				}
			}
		}(s, offsets[i])
	}
	wg.Wait()
}

// SnapshotTrace returns the trace over everything appended so far. The
// entries slice is capped at the current length, so later Appends —
// which only write past it — never alias what a reader sees.
func (b *IncrementalBuilder) SnapshotTrace() *trace.Trace {
	n := len(b.entries)
	return &trace.Trace{Name: b.name, Entries: b.entries[:n:n]}
}

// Snapshot returns a query-ready Web over everything appended so far.
// The web is immutable from the reader's perspective: view maps and the
// object index are copied (O(views + objects)), while the heavy
// structures — arenas, entry-id lists, the link table, the class keys —
// are shared with the builder via length-capped slices whose visible
// prefixes are never rewritten by later Appends.
func (b *IncrementalBuilder) Snapshot() *Web {
	n := len(b.entries)
	vs := make(map[Name]*View, len(b.views))
	for name, v := range b.views {
		vs[name] = &View{Name: name, EIDs: v.EIDs[:len(v.EIDs):len(v.EIDs)]}
	}
	objs := make(map[trace.Loc]ObjectInfo, len(b.objects))
	for loc, info := range b.objects {
		objs[loc] = info
	}
	return &Web{
		Trace:   b.SnapshotTrace(),
		views:   vs,
		byEntry: b.byEntry[:n:n],
		arenas:  b.arenas[:len(b.arenas):len(b.arenas)],
		objects: objs,
		keys:    b.keys[:n:n],
	}
}

// Equivalent reports whether two webs are semantically identical: same
// trace entries, same views with the same entry-id lists, same per-entry
// links and class keys, same object index, same MemBytes. Arena
// chunking — one arena per build shard or per incremental batch — is an
// implementation detail and deliberately not compared, which is why incremental-vs-batch
// equivalence checks use this instead of reflect.DeepEqual on the Web.
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
	an, cn := a.Names(), c.Names()
	if len(an) != len(cn) {
		return fmt.Errorf("view counts differ: %d vs %d", len(an), len(cn))
	}
	for i, n := range an {
		if cn[i] != n {
			return fmt.Errorf("view name %d differs: %v vs %v", i, n, cn[i])
		}
		av, cv := a.views[n], c.views[n]
		if len(av.EIDs) != len(cv.EIDs) {
			return fmt.Errorf("view %v sizes differ: %d vs %d", n, len(av.EIDs), len(cv.EIDs))
		}
		for j := range av.EIDs {
			if av.EIDs[j] != cv.EIDs[j] {
				return fmt.Errorf("view %v entry %d differs: %d vs %d", n, j, av.EIDs[j], cv.EIDs[j])
			}
		}
	}
	for eid := range a.byEntry {
		ae, ce := a.byEntry[eid], c.byEntry[eid]
		if len(ae) != len(ce) {
			return fmt.Errorf("entry %d link counts differ: %d vs %d", eid, len(ae), len(ce))
		}
		for j := range ae {
			if ae[j] != ce[j] {
				return fmt.Errorf("entry %d link %d differs: %v vs %v", eid, j, ae[j], ce[j])
			}
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
