// Package corpus is the content-addressed trace store behind
// rprism-serve: traces are uploaded once, addressed by the digest of
// their canonical encoding, and analyzed many times.
//
// Three tiers hold a trace:
//
//   - a disk tier of RSEG segments written through trace.SegmentWriter
//     (the §5 segmentation mechanism reused as the durable format), with
//     a small JSON sidecar of metadata per trace;
//   - an LRU of decoded *trace.Trace values, bounding resident entries;
//   - a memoized cache of built view webs, keyed by digest and
//     single-flighted: when N concurrent diffs need the views of one
//     trace, exactly one goroutine builds them and the rest wait for
//     that build.
//
// Invariants the server relies on:
//
//   - Stored traces are immutable: Put interns all symbols before the
//     trace becomes visible, so every later Build/diff only reads it.
//   - A digest admitted to the index stays resolvable until Delete:
//     eviction only drops decoded/built forms, never the disk tier.
//   - A web handed out by Views is never mutated (see views.Build), so
//     callers may share it freely across goroutines.
package corpus

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/blob"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/retry"
	"repro/internal/trace"
	"repro/internal/views"
)

// ErrNotFound reports a digest the store has never admitted (or has
// deleted).
var ErrNotFound = errors.New("corpus: trace not found")

// ErrInvalidTrace reports a trace that violates the grammar's structural
// invariants (every legitimate producer assigns dense EIDs 0..n-1; the
// analysis pipeline indexes by EID and relies on that).
var ErrInvalidTrace = errors.New("corpus: invalid trace")

// ErrInvalidSidecar reports a meta sidecar (a local file or a bucket
// object) the store refuses to trust: unparseable, naming another
// digest, or recording counts no Put writes.
var ErrInvalidSidecar = errors.New("corpus: invalid meta sidecar")

// Options configure a Store. Zero values select the defaults.
type Options struct {
	// TraceCacheSize bounds the decoded-trace LRU (default 16 traces).
	TraceCacheSize int
	// WebCacheSize bounds the built view-web cache (default 8 webs).
	WebCacheSize int
	// SegmentLimit is the max entries per on-disk segment (default 65536).
	SegmentLimit int
	// VerifyOnLoad recomputes the digest of every trace loaded from disk
	// and rejects corrupted content. Costs one canonical-encoding pass
	// per cache miss.
	VerifyOnLoad bool
	// MaxSessions bounds concurrently open live-capture sessions
	// (default 64). Sessions hold their entries and incremental webs in
	// memory, so without a cap abandoned recorders (crashed clients that
	// never close or abort) would grow the store without bound;
	// OpenSession fails once the cap is reached until sessions close,
	// abort, or are deleted.
	MaxSessions int
	// Blob, when non-nil, adds the object-store tier below the disk
	// tier: Puts write through to it (a trace is not admitted until its
	// objects are durable in the bucket) and reads of digests absent
	// locally hydrate from it. The store layers the repo-wide
	// jittered-backoff retry policy on top; pass the raw backend.
	Blob blob.Backend
	// BlobPrefix namespaces this store's object keys inside the bucket
	// (a "/" is appended if missing). Empty stores at the bucket root.
	BlobPrefix string
	// DiskCacheTraces bounds how many traces the local disk tier keeps
	// when a blob tier is configured (0 = unbounded). Past the bound
	// the least recently used local copy is deleted; the trace stays
	// resolvable through the bucket.
	DiskCacheTraces int
}

func (o Options) withDefaults() Options {
	if o.TraceCacheSize <= 0 {
		o.TraceCacheSize = 16
	}
	if o.WebCacheSize <= 0 {
		o.WebCacheSize = 8
	}
	if o.SegmentLimit <= 0 {
		o.SegmentLimit = 1 << 16
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 64
	}
	return o
}

// Meta describes one stored trace.
type Meta struct {
	ID       string `json:"id"` // hex digest
	Name     string `json:"name"`
	Entries  int    `json:"entries"`
	Segments int    `json:"segments"`
}

// Stats is a snapshot of store contents and cache behavior.
type Stats struct {
	Traces         int   `json:"traces"`           // traces in the index
	EntriesOnDisk  int   `json:"entries_on_disk"`  // sum of entry counts
	SegmentsOnDisk int   `json:"segments_on_disk"` // sum of segment-file counts
	OpenSessions   int   `json:"open_sessions"`    // append-open live sessions
	SessionEntries int   `json:"session_entries"`  // entries buffered across open sessions
	TraceCacheLen  int   `json:"trace_cache_len"`
	WebCacheLen    int   `json:"web_cache_len"`
	WebWaits       int64 `json:"web_waits"` // coalesced onto another goroutine's build
	Evictions      int64 `json:"evictions"` // trace + web LRU evictions
	Puts           int64 `json:"puts"`
	Dedups         int64 `json:"dedups"` // Puts that found the digest already stored
	// TraceCache and WebCache are the per-LRU hit/miss/eviction counts:
	// a trace-cache miss is a disk load, a web-cache miss a views.Build
	// run. Web-cache waits coalesced onto another goroutine's build are
	// WebWaits.
	TraceCache metrics.CacheSnapshot `json:"trace_cache"`
	WebCache   metrics.CacheSnapshot `json:"web_cache"`
	// Blob is the object-store tier's counters; nil when no blob tier
	// is configured. RemoteTraces counts traces known to live only in
	// the bucket (disk-evicted locally or discovered via lookups).
	Blob         *metrics.BlobSnapshot `json:"blob,omitempty"`
	RemoteTraces int                   `json:"remote_traces,omitempty"`
}

// Store is the concurrent content-addressed trace corpus. All methods
// are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	// putMu serializes disk writes: without it, two Puts of the same
	// content race os.Create truncations on the same segment files, and
	// a failed rewrite could hole a trace the first writer admitted.
	// lock is the directory's lock file (see lockWrites).
	putMu sync.Mutex
	lock  *os.File

	mu       sync.Mutex
	index    map[trace.Digest]Meta
	traces   map[trace.Digest]*list.Element // values: *traceItem, in lru
	traceLRU *list.List                     // front = most recent
	webs     map[trace.Digest]*list.Element // values: *webItem, in lru
	webLRU   *list.List
	sessions map[string]*Session // append-open live sessions, by id

	// sketches holds the loaded similarity sketches (a subset of the
	// index: sidecars load lazily on first need) and lsh the LSH-banded
	// cluster index over them, maintained on Put/Delete.
	sketches map[trace.Digest]*index.Sketch
	lsh      *index.Index

	// blob is the retry-wrapped object-store tier (nil: disabled).
	// local/localLRU track which digests hold disk-tier files, for the
	// DiskCacheTraces bound; remote caches metas learned from the
	// bucket for traces not locally resident.
	blob       blob.Backend
	blobPrefix string
	local      map[trace.Digest]*list.Element // values: trace.Digest, in localLRU
	localLRU   *list.List
	remote     map[trace.Digest]Meta

	traceCache, webCache metrics.CacheCounters
	blobCounters         metrics.BlobCounters
	webWaits             atomic.Int64
	puts, dedups         atomic.Int64

	sketchLoads, sketchBackfills, sketchComputed atomic.Int64
}

type traceItem struct {
	id trace.Digest
	t  *trace.Trace
}

// webItem is a single-flight slot for one trace's view web: the first
// goroutine to claim the slot builds, everyone else blocks in once.Do
// until the web (or the load error) is ready.
type webItem struct {
	id   trace.Digest
	once sync.Once
	done atomic.Bool // set after once.Do's function returns
	web  *views.Web
	err  error
}

// New opens (or creates) a store rooted at dir and indexes the traces
// already on disk from their metadata sidecars.
func New(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	s := &Store{
		dir:      dir,
		opts:     opts.withDefaults(),
		index:    make(map[trace.Digest]Meta),
		traces:   make(map[trace.Digest]*list.Element),
		traceLRU: list.New(),
		webs:     make(map[trace.Digest]*list.Element),
		webLRU:   list.New(),
		sessions: make(map[string]*Session),
		sketches: make(map[trace.Digest]*index.Sketch),
		lsh:      index.NewIndex(),
		local:    make(map[trace.Digest]*list.Element),
		localLRU: list.New(),
		remote:   make(map[trace.Digest]Meta),
	}
	if opts.Blob != nil {
		if opts.BlobPrefix != "" && !strings.HasSuffix(opts.BlobPrefix, "/") {
			opts.BlobPrefix += "/"
		}
		s.blobPrefix = opts.BlobPrefix
		// The capture stream client's jittered-backoff policy, shared via
		// internal/retry: transient blob failures (5xx, transport) retry;
		// ErrNotFound and 4xx fail fast.
		s.blob = blob.WithRetry(opts.Blob, retry.Policy{}, func() {
			s.blobCounters.Retries.Add(1)
		})
	}
	// Sweep only under the exclusive lock: while any other store writes
	// here (see lockWrites), the sweep is skipped. Without a lock file (a
	// read-only directory) the store neither sweeps nor writes.
	s.lock, _ = os.OpenFile(filepath.Join(dir, "corpus.lock"), os.O_RDONLY|os.O_CREATE, 0o644)
	sweep := flock(s.lock, lockExclusive) == nil
	if sweep {
		defer flock(s.lock, lockRelease)
	}
	// The one directory read: every later per-trace path opens its files
	// by name from the sidecar's segment count.
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: scan %s: %w", dir, err)
	}
	for _, f := range files {
		idStr, ok := strings.CutSuffix(f.Name(), ".meta.json")
		if !ok {
			continue
		}
		p := filepath.Join(dir, f.Name())
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		m, err := decodeMeta(raw, idStr, p)
		if err != nil {
			return nil, err
		}
		id, _ := trace.ParseDigest(m.ID)
		s.index[id] = m
		s.touchLocalLocked(id)
	}
	if sweep {
		s.sweepOrphans(files)
	}
	return s, nil
}

// sweepOrphans deletes what a crash left uncommitted: segments and a
// sketch with no meta sidecar, a sidecar never renamed into place, and
// segments numbered at or past their trace's count. Files not prefixed
// by a digest are not the store's and stay.
func (s *Store) sweepOrphans(files []os.DirEntry) {
	for _, f := range files {
		idStr, rest, _ := strings.Cut(f.Name(), ".")
		id, err := trace.ParseDigest(idStr)
		if err != nil {
			continue
		}
		m, committed := s.index[id]
		n, isSeg := trace.SegmentIndex(f.Name(), idStr)
		if (isSeg && (!committed || n >= m.Segments)) ||
			(rest == "sketch.json" && !committed) || rest == "meta.json.tmp" {
			os.Remove(filepath.Join(s.dir, f.Name()))
		}
	}
}

// lockWrites serializes this store's disk writes and holds the lock
// file's shared lock across them, so no New sweeps files a write has
// not committed yet. It returns the unlock.
func (s *Store) lockWrites() (func(), error) {
	s.putMu.Lock()
	if err := flock(s.lock, lockShared); err != nil {
		s.putMu.Unlock()
		return nil, fmt.Errorf("corpus: lock %s: %w", s.dir, err)
	}
	return func() { flock(s.lock, lockRelease); s.putMu.Unlock() }, nil
}

// writeMeta commits a trace's files by writing its meta sidecar under
// a temporary name and renaming it into place, so a crash leaves either
// no sidecar or a whole one.
func (s *Store) writeMeta(id trace.Digest, raw []byte) error {
	tmp := s.metaPath(id) + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.metaPath(id))
}

// decodeMeta parses the meta sidecar of digest want. Sidecars are
// untrusted input: Meta.Segments decides how many files a load opens,
// so a count outside 1 <= Segments <= Entries is refused here, before
// any I/O is sized by it.
func decodeMeta(raw []byte, want, path string) (Meta, error) {
	var m Meta
	var msg string
	if err := json.Unmarshal(raw, &m); err != nil {
		msg = err.Error()
	} else if _, err := trace.ParseDigest(want); err != nil || m.ID != want {
		msg = fmt.Sprintf("names digest %q", m.ID)
	} else if m.Segments < 1 || m.Entries < 1 || m.Segments > m.Entries {
		msg = fmt.Sprintf("%d segments for %d entries (want 1 <= segments <= entries)", m.Segments, m.Entries)
	} else {
		return m, nil
	}
	return Meta{}, fmt.Errorf("%w %s: %s", ErrInvalidSidecar, path, msg)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Put admits a trace, returning its digest and whether new content was
// stored (false: deduplicated to an existing trace). The trace is fully
// interned before it becomes visible (making later concurrent reads
// race-free) and written to the disk tier unless an identical trace is
// already stored. The caller must not mutate t afterwards: the store now
// owns it.
func (s *Store) Put(t *trace.Trace) (trace.Digest, bool, error) {
	// An empty trace would write no segment files, leaving a digest
	// that becomes unresolvable once evicted from the decoded LRU —
	// breaking the admitted-stays-resolvable invariant.
	if t.Len() == 0 {
		return trace.Digest{}, false, fmt.Errorf("%w: empty trace", ErrInvalidTrace)
	}
	// The pipeline (views.Build's byEntry, diff navigation, segment
	// reassembly) indexes by EID and requires the dense 0..n-1 numbering
	// every legitimate producer emits; reject anything else before it
	// can reach an analysis goroutine.
	for i := range t.Entries {
		if int(t.Entries[i].EID) != i {
			return trace.Digest{}, false, fmt.Errorf(
				"%w: entry %d has eid %d (entry ids must be consecutive from 0)",
				ErrInvalidTrace, i, t.Entries[i].EID)
		}
	}
	t.EnsureSyms()
	id := t.ComputeDigest()
	s.puts.Add(1)

	// Serialize disk writes per store. Readers are unaffected (they
	// take s.mu, not putMu), and a concurrent Put of the same content
	// becomes a plain dedup once the first writer admits the digest.
	unlock, err := s.lockWrites()
	if err != nil {
		return id, false, err
	}
	defer unlock()

	s.mu.Lock()
	_, exists := s.index[id]
	s.mu.Unlock()
	if exists {
		s.dedups.Add(1)
		return id, false, nil
	}

	w, err := trace.NewSegmentWriter(s.dir, id.String(), s.opts.SegmentLimit)
	if err != nil {
		return id, false, err
	}
	// The similarity sketch folds in incrementally on the same pass that
	// writes segments: ingest stays one walk over the entries, and the
	// sketch lands with the trace instead of being backfilled later.
	sketcher := index.NewSketcher()
	writeAll := func() error {
		for i := range t.Entries {
			e := &t.Entries[i]
			sketcher.Add(e)
			if _, err := w.Append(e.TID, e.Method, e.Self, e.Event); err != nil {
				return err
			}
		}
		return w.Close()
	}
	if err := writeAll(); err != nil {
		// A flush that failed may have begun one more file.
		s.removeLocalFiles(id, w.Segments()+1)
		return id, false, err
	}
	sk := sketcher.Sketch()
	if raw, err := sk.Marshal(); err == nil {
		// Best effort: a missing sidecar is recomputed lazily on demand,
		// so a sketch-write failure must not fail an otherwise durable Put.
		_ = os.WriteFile(s.sketchPath(id), raw, 0o644)
	}
	m := Meta{ID: id.String(), Name: t.Name, Entries: t.Len(), Segments: w.Segments()}
	raw, err := json.Marshal(m)
	// Write through to the blob tier before the local sidecar commits: a
	// trace the index serves must be durable in the bucket, or a
	// disk-tier eviction (or another cluster node's read) would lose it.
	if err == nil && s.blob != nil {
		if err = s.uploadBlob(context.Background(), id, m, raw); err != nil {
			err = fmt.Errorf("blob write-through: %w", err)
		}
	}
	if err == nil {
		err = s.writeMeta(id, raw)
	}
	if err != nil {
		s.removeLocalFiles(id, m.Segments)
		return id, false, fmt.Errorf("corpus: %w", err)
	}

	s.sketchComputed.Add(1)
	s.mu.Lock()
	s.index[id] = m
	s.admitTraceLocked(id, t)
	s.sketches[id] = sk
	s.mu.Unlock()
	s.lsh.Add(id, sk)
	s.touchLocal(id)
	return id, true, nil
}

func (s *Store) metaPath(id trace.Digest) string {
	return filepath.Join(s.dir, id.String()+".meta.json")
}

// Meta returns the metadata of a stored trace, consulting the blob
// tier for traces not locally resident (without hydrating them —
// metadata needs only the meta object).
func (s *Store) Meta(id trace.Digest) (Meta, error) {
	s.mu.Lock()
	if m, ok := s.index[id]; ok {
		s.mu.Unlock()
		return m, nil
	}
	if m, ok := s.remote[id]; ok {
		s.mu.Unlock()
		return m, nil
	}
	if s.blob == nil {
		err := s.notFoundLocked(id)
		s.mu.Unlock()
		return Meta{}, err
	}
	s.mu.Unlock()
	m, err := s.blobMeta(context.Background(), id)
	if err != nil {
		return Meta{}, err
	}
	s.mu.Lock()
	s.remote[id] = m
	s.mu.Unlock()
	return m, nil
}

// List returns metadata for every stored trace, sorted by id.
func (s *Store) List() []Meta {
	s.mu.Lock()
	out := make([]Meta, 0, len(s.index))
	for _, m := range s.index {
		out = append(out, m)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of stored traces.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Get returns the decoded trace for id, loading it from the disk tier on
// an LRU miss. The returned trace is shared and must be treated as
// read-only.
func (s *Store) Get(id trace.Digest) (*trace.Trace, error) {
	s.mu.Lock()
	if el, ok := s.traces[id]; ok {
		s.traceLRU.MoveToFront(el)
		t := el.Value.(*traceItem).t
		s.mu.Unlock()
		s.traceCache.Hits.Add(1)
		return t, nil
	}
	m, ok := s.index[id]
	if !ok {
		s.mu.Unlock()
		// Blob-tier fallback: hydrate the segment set onto local disk
		// and serve it through the same strict load path below.
		var err error
		if m, err = s.hydrate(context.Background(), id, false); err != nil {
			return nil, err
		}
	} else {
		s.mu.Unlock()
	}
	s.traceCache.Misses.Add(1)

	t, err := s.loadLocal(id, m)
	if err != nil && s.blob != nil {
		// The local files may have been disk-evicted (or corrupted)
		// between the index check and the load; re-pull the authoritative
		// copy from the bucket and retry once.
		if _, herr := s.hydrate(context.Background(), id, true); herr == nil {
			t, err = s.loadLocal(id, m)
		}
	}
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.admitTraceLocked(id, t)
	s.touchLocalLocked(id)
	s.mu.Unlock()
	return t, nil
}

// loadLocal decodes a trace from its disk-tier segments, enforcing the
// store's strictness. It runs outside the locks: two goroutines
// missing on the same id both load; the second admission wins, which
// is harmless — both copies are immutable and identical.
//
// The store is strict where the capture-recovery loader is
// forgiving: a content-addressed trace that loads short — a segment
// missing or undecodable, or fewer entries than its sidecar recorded —
// is corruption, not a crash to salvage, and serving the prefix would
// silently break the digest contract every analysis relies on. Only
// the m.Segments files the sidecar names are opened.
func (s *Store) loadLocal(id trace.Digest, m Meta) (*trace.Trace, error) {
	t, err := trace.LoadSegmentCount(s.dir, id.String(), m.Segments)
	if err != nil {
		return nil, fmt.Errorf("corpus: trace %s corrupted on disk: %w", id, err)
	}
	if t.Len() != m.Entries {
		return nil, fmt.Errorf("corpus: trace %s corrupted on disk: loaded %d of %d entries",
			id, t.Len(), m.Entries)
	}
	t.Name = m.Name // segments are named by digest; restore the label
	if s.opts.VerifyOnLoad {
		if got := t.ComputeDigest(); got != id {
			return nil, fmt.Errorf("corpus: trace %s corrupted on disk (digest %s)", id, got)
		}
	}
	return t, nil
}

// admitTraceLocked inserts or refreshes a decoded trace in the LRU,
// evicting from the back past capacity. Caller holds s.mu.
func (s *Store) admitTraceLocked(id trace.Digest, t *trace.Trace) {
	if el, ok := s.traces[id]; ok {
		el.Value.(*traceItem).t = t
		s.traceLRU.MoveToFront(el)
		return
	}
	s.traces[id] = s.traceLRU.PushFront(&traceItem{id: id, t: t})
	for s.traceLRU.Len() > s.opts.TraceCacheSize {
		oldest := s.traceLRU.Back()
		it := oldest.Value.(*traceItem)
		s.traceLRU.Remove(oldest)
		delete(s.traces, it.id)
		s.traceCache.Evictions.Add(1)
	}
}

// Views returns the memoized view web of a stored trace, building it at
// most once per cache residency no matter how many goroutines ask
// concurrently (single-flight). The returned web is immutable; callers
// on the diff path hand it straight to diff.ViewDiffWebs.
func (s *Store) Views(id trace.Digest) (*views.Web, error) {
	s.mu.Lock()
	if _, ok := s.index[id]; !ok {
		s.mu.Unlock()
		// Blob-tier fallback: pull the trace local before claiming a
		// build slot, so the build's Get cannot miss.
		if _, err := s.hydrate(context.Background(), id, false); err != nil {
			return nil, err
		}
		s.mu.Lock()
	}
	el, ok := s.webs[id]
	if ok {
		s.webLRU.MoveToFront(el)
	} else {
		el = s.webLRU.PushFront(&webItem{id: id})
		s.webs[id] = el
		for s.webLRU.Len() > s.opts.WebCacheSize {
			oldest := s.webLRU.Back()
			it := oldest.Value.(*webItem)
			s.webLRU.Remove(oldest)
			delete(s.webs, it.id)
			s.webCache.Evictions.Add(1)
		}
	}
	it := el.Value.(*webItem)
	s.mu.Unlock()

	wasDone := it.done.Load()
	built := false
	it.once.Do(func() {
		built = true
		s.webCache.Misses.Add(1)
		var t *trace.Trace
		if t, it.err = s.Get(id); it.err == nil {
			it.web = views.Build(t)
		}
		it.done.Store(true)
	})
	if !built {
		if wasDone {
			s.webCache.Hits.Add(1)
		} else {
			// We blocked inside once.Do while another goroutine built:
			// the single-flight coalescing path.
			s.webWaits.Add(1)
		}
	}
	if it.err != nil {
		// Failed builds must not be memoized as permanent failures:
		// drop the slot so a later call retries.
		s.mu.Lock()
		if el2, ok := s.webs[id]; ok && el2.Value.(*webItem) == it {
			s.webLRU.Remove(el2)
			delete(s.webs, id)
		}
		s.mu.Unlock()
		return nil, it.err
	}
	return it.web, nil
}

// ViewsCtx is Views with caller-side cancellation. An already-built web
// is served immediately with no extra machinery. Otherwise the build (or
// the wait on another goroutine's build) runs detached: if ctx ends
// first, this caller unblocks with the context's error while the build
// itself completes and populates the cache for future callers — one
// impatient client must not waste the work every other waiter is
// queued on.
func (s *Store) ViewsCtx(ctx context.Context, id trace.Digest) (*views.Web, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if el, ok := s.webs[id]; ok {
		it := el.Value.(*webItem)
		if it.done.Load() && it.err == nil {
			s.webLRU.MoveToFront(el)
			s.mu.Unlock()
			s.webCache.Hits.Add(1)
			return it.web, nil
		}
	}
	s.mu.Unlock()

	type out struct {
		web *views.Web
		err error
	}
	ch := make(chan out, 1)
	go func() {
		w, err := s.Views(id)
		ch <- out{w, err}
	}()
	select {
	case o := <-ch:
		return o.web, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Delete removes a trace from every tier, including disk and — when a
// blob tier is configured — the bucket. A trace resident only in the
// bucket (disk-evicted locally, or written by another cluster node) is
// deletable too.
func (s *Store) Delete(id trace.Digest) error {
	s.mu.Lock()
	m, ok := s.index[id]
	if !ok {
		m, ok = s.remote[id]
	}
	if !ok {
		if s.blob == nil {
			err := s.notFoundLocked(id)
			s.mu.Unlock()
			return err
		}
		// Not known locally at all: the bucket decides existence.
		s.mu.Unlock()
		var err error
		if m, err = s.blobMeta(context.Background(), id); err != nil {
			return err
		}
		s.mu.Lock()
	}
	delete(s.index, id)
	s.dropLocalLocked(id)
	if el, ok := s.traces[id]; ok {
		s.traceLRU.Remove(el)
		delete(s.traces, id)
	}
	if el, ok := s.webs[id]; ok {
		s.webLRU.Remove(el)
		delete(s.webs, id)
	}
	delete(s.sketches, id)
	s.mu.Unlock()
	s.lsh.Remove(id)

	if err := s.removeLocalFiles(id, m.Segments); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	if s.blob != nil {
		return s.deleteBlob(context.Background(), id)
	}
	return nil
}

// Stats snapshots the store.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Traces:        len(s.index),
		TraceCacheLen: s.traceLRU.Len(),
		WebCacheLen:   s.webLRU.Len(),
	}
	for _, m := range s.index {
		st.EntriesOnDisk += m.Entries
		st.SegmentsOnDisk += m.Segments
	}
	s.mu.Unlock()
	st.OpenSessions, st.SessionEntries = s.sessionStats()
	st.TraceCache = s.traceCache.Snapshot(st.TraceCacheLen, s.opts.TraceCacheSize)
	st.WebCache = s.webCache.Snapshot(st.WebCacheLen, s.opts.WebCacheSize)
	st.WebWaits = s.webWaits.Load()
	st.Evictions = st.TraceCache.Evictions + st.WebCache.Evictions
	st.Puts = s.puts.Load()
	st.Dedups = s.dedups.Load()
	if s.blob != nil {
		bs := s.blobCounters.Snapshot()
		st.Blob = &bs
		s.mu.Lock()
		st.RemoteTraces = len(s.remote)
		s.mu.Unlock()
	}
	return st
}
