// Package corpus is the content-addressed trace store behind
// rprism-serve: traces are uploaded once, addressed by the digest of
// their canonical encoding, and analyzed many times.
//
// Three tiers hold a trace, each bounded by one lru.Cache:
//
//   - a disk tier of one RSEG file per trace, with a similarity-sketch
//     sidecar and a small JSON sidecar of metadata, each file written
//     whole through atomicfile.Write;
//   - the decoded *trace.Trace values;
//   - the built view webs, filled by the cache's single-flight rule:
//     when N concurrent diffs need the views of one trace, the first
//     caller builds them under its own context and the rest wait.
//
// Invariants the server relies on:
//
//   - Stored traces are immutable: Put interns all symbols before the
//     trace becomes visible, so every later Build/diff only reads it.
//   - A digest the store knows (a member: Put, loaded at New, hydrated,
//     or learned from the blob tier) stays resolvable until Delete. The
//     trace and web LRUs drop decoded and built forms; with a blob tier,
//     the DiskCacheTraces bound drops local files too, and the trace
//     then hydrates back from the bucket. Eviction never drops a
//     member's meta or its resolved sketch.
//   - Every corpus-scale reader (List, EnsureIndexed, Clusters, and the
//     engine's search) covers the same set: every member, in every tier.
//   - A web handed out by ViewsCtx is never mutated (see views.Build), so
//     callers may share it freely across goroutines.
package corpus

import (
	"bytes"
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

	"repro/internal/atomicfile"
	"repro/internal/blob"
	"repro/internal/index"
	"repro/internal/lru"
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
	Segments int    `json:"segments"` // always 1: a trace is one file

}

// Stats is a snapshot of store contents and cache behavior.
type Stats struct {
	Traces         int   `json:"traces"`          // members resident on local disk
	EntriesOnDisk  int   `json:"entries_on_disk"` // sum of their entry counts
	OpenSessions   int   `json:"open_sessions"`   // append-open live sessions
	SessionEntries int   `json:"session_entries"` // entries buffered across open sessions
	WebWaits       int64 `json:"web_waits"`       // coalesced onto another goroutine's build
	Evictions      int64 `json:"evictions"`       // trace + web LRU evictions
	Puts           int64 `json:"puts"`
	Dedups         int64 `json:"dedups"` // Puts that found the digest already stored
	// TraceCache and WebCache are the per-LRU hit/miss/eviction counts:
	// a trace-cache miss is a disk load, a web-cache miss a views build
	// run. Web-cache waits coalesced onto another goroutine's build are
	// WebWaits.
	TraceCache metrics.CacheSnapshot `json:"trace_cache"`
	WebCache   metrics.CacheSnapshot `json:"web_cache"`
	// Blob is the object-store tier's counters; nil when no blob tier
	// is configured. RemoteTraces counts the members not on local disk
	// (disk-evicted, or learned from the bucket); Traces + RemoteTraces
	// is Len.
	Blob         *metrics.BlobSnapshot `json:"blob,omitempty"`
	RemoteTraces int                   `json:"remote_traces,omitempty"`
}

// Store is the concurrent content-addressed trace corpus. All methods
// are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	// putMu serializes disk writes (Put, hydrate, Delete, the sketch
	// backfill), so each checks residency and changes the files as one
	// step, and no writer removes files another one admitted.
	// lock is the directory's lock file (see lockWrites).
	putMu sync.Mutex
	lock  *os.File

	mu sync.Mutex
	// metas holds every member: each trace the store knows, whether its
	// files are on local disk or only in the blob tier.
	metas    map[trace.Digest]Meta
	sessions map[string]*Session // append-open live sessions, by id

	// sketches holds the resolved similarity sketches, a subset of the
	// members: sidecars load lazily on first need, and a resolved
	// sketch stays until Delete.
	sketches map[trace.Digest]*index.Sketch

	// traces and webs are the decoded-trace and view-web tiers. local
	// is the set of members holding disk-tier files, bounded by
	// DiskCacheTraces with a blob tier; without one every member is in
	// it. Removals from all three happen under mu, with the metas.
	traces *lru.Cache[trace.Digest, *trace.Trace]
	webs   *lru.Cache[trace.Digest, *views.Web]
	local  *lru.Cache[trace.Digest, struct{}]

	// blob is the retry-wrapped object-store tier (nil: disabled).
	blob       blob.Backend
	blobPrefix string

	blobCounters metrics.BlobCounters
	puts, dedups atomic.Int64

	sketchLoads, sketchBackfills, sketchComputed atomic.Int64
}

// New opens (or creates) a store rooted at dir and indexes the traces
// already on disk from their metadata sidecars.
func New(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	opts = opts.withDefaults()
	s := &Store{
		dir:      dir,
		opts:     opts,
		metas:    make(map[trace.Digest]Meta),
		sessions: make(map[string]*Session),
		sketches: make(map[trace.Digest]*index.Sketch),
		traces:   lru.New[trace.Digest, *trace.Trace](opts.TraceCacheSize),
		webs:     lru.New[trace.Digest, *views.Web](opts.WebCacheSize),
		// Unbounded while the scan below seeds it: New evicts nothing,
		// and the first Put or hydration trims it to DiskCacheTraces.
		local: lru.New[trace.Digest, struct{}](0),
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
	// The one directory read. A multi-segment sidecar is refused here,
	// before the sweep could remove its segments.
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
		s.metas[id] = m
		s.local.Add(id, struct{}{})
	}
	if s.blob != nil {
		s.local.SetCap(opts.DiskCacheTraces)
	}
	if sweep {
		s.sweepOrphans(files)
	}
	return s, nil
}

// sweepOrphans deletes what a crash left uncommitted: a file prefixed by
// a digest stays only if it is the trace file, sketch or meta sidecar of
// a committed trace, so uncommitted files, temps and stale segments go.
// Files not prefixed by a digest are not the store's and stay.
func (s *Store) sweepOrphans(files []os.DirEntry) {
	for _, f := range files {
		idStr, rest, _ := strings.Cut(f.Name(), ".")
		id, err := trace.ParseDigest(idStr)
		if err != nil {
			continue
		}
		own := rest == "meta.json" || rest == "sketch.json" || f.Name() == filepath.Base(s.tracePath(id))
		if !own || !s.local.Contains(id) {
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

// decodeMeta parses the meta sidecar of digest want. Sidecars are
// untrusted input: one that records no entries, or a segment count
// other than 1 (a trace an earlier release split), is refused here.
func decodeMeta(raw []byte, want, path string) (Meta, error) {
	var m Meta
	var msg string
	if err := json.Unmarshal(raw, &m); err != nil {
		msg = err.Error()
	} else if _, err := trace.ParseDigest(want); err != nil || m.ID != want {
		msg = fmt.Sprintf("names digest %q", m.ID)
	} else if m.Segments != 1 || m.Entries < 1 {
		msg = fmt.Sprintf("%d segments for %d entries (want 1 segment; 'rprism convert -dir DIR' merges the segments of earlier releases)", m.Segments, m.Entries)
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
	// An empty trace would commit a sidecar of 0 entries, which the
	// next New refuses.
	if t.Len() == 0 {
		return trace.Digest{}, false, fmt.Errorf("%w: empty trace", ErrInvalidTrace)
	}
	// The pipeline (views.Build's byEntry, diff navigation) indexes by
	// EID and requires the dense 0..n-1 numbering every legitimate
	// producer emits; reject anything else before it can reach an
	// analysis goroutine.
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

	if s.local.Contains(id) {
		s.dedups.Add(1)
		return id, false, nil
	}

	// One encoding goes to disk and bucket; meta, the commit marker, last.
	var enc bytes.Buffer
	if err := t.WriteRSEG(&enc); err != nil {
		return id, false, err
	}
	sk := index.SketchTrace(t)
	skRaw, _ := sk.Marshal() // nil on failure: handled like a sketch not written
	m := Meta{ID: id.String(), Name: t.Name, Entries: t.Len(), Segments: 1}
	raw, err := json.Marshal(m)
	if err == nil {
		err = atomicfile.Write(s.tracePath(id), enc.Bytes())
	}
	if err == nil && skRaw != nil {
		// Best effort: a missing sketch is backfilled on demand.
		_ = atomicfile.Write(s.sketchPath(id), skRaw)
	}
	// Write through to the blob tier before the local sidecar commits: a
	// trace the store serves must be durable in the bucket, or a
	// disk-tier eviction (or another cluster node's read) would lose it.
	if err == nil && s.blob != nil {
		if err = s.uploadBlob(context.Background(), id, enc.Bytes(), skRaw, raw); err != nil {
			err = fmt.Errorf("blob write-through: %w", err)
		}
	}
	if err == nil {
		err = atomicfile.Write(s.metaPath(id), raw)
	}
	if err != nil {
		s.removeLocalFiles(id)
		return id, false, fmt.Errorf("corpus: %w", err)
	}

	s.sketchComputed.Add(1)
	s.mu.Lock()
	s.metas[id] = m
	s.sketches[id] = sk
	s.mu.Unlock()
	s.traces.Add(id, t)
	s.touchLocal(id)
	return id, true, nil
}

func (s *Store) metaPath(id trace.Digest) string {
	return filepath.Join(s.dir, id.String()+".meta.json")
}

// tracePath names a trace's one RSEG file by segment 0's name, which
// every trace of earlier releases under 65,536 entries already used.
func (s *Store) tracePath(id trace.Digest) string {
	return trace.SegmentPath(s.dir, id.String(), 0)
}

// Meta returns the metadata of a stored trace, consulting the blob
// tier for traces not locally resident (without hydrating them —
// metadata needs only the meta object).
func (s *Store) Meta(id trace.Digest) (Meta, error) {
	s.mu.Lock()
	if m, ok := s.metas[id]; ok {
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
	s.metas[id] = m
	s.mu.Unlock()
	return m, nil
}

// List returns the metadata of every member, sorted by id: every trace
// on local disk and, with a blob tier, every trace in the bucket. It
// first walks the bucket (see learnBlob), so a trace another node
// stored, or one this store evicted before a reopen, is listed too; if
// the bucket fails, List returns the members already known. Search,
// EnsureIndexed and Clusters all cover this set.
func (s *Store) List() []Meta {
	if s.blob != nil {
		s.learnBlob(context.Background())
	}
	s.mu.Lock()
	out := make([]Meta, 0, len(s.metas))
	for _, m := range s.metas {
		out = append(out, m)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of members the store knows, in every tier:
// those on local disk and those known only in the blob tier (evicted
// past DiskCacheTraces, or learned from the bucket). It does not walk
// the bucket: a reopened store learns its bucket-only members on its
// first List.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.metas)
}

// Get returns the decoded trace for id, loading it from the disk tier
// on an LRU miss; concurrent misses on one id decode it once. The
// returned trace is shared and must be treated as read-only.
func (s *Store) Get(id trace.Digest) (*trace.Trace, error) {
	return s.get(context.Background(), id)
}

// get is Get under ctx, which bounds this caller's wait and, if it runs
// the fill, the hydration. The fill reads the trace from the disk tier,
// first hydrating it from the bucket if it is not resident, and
// refreshes its disk recency.
func (s *Store) get(ctx context.Context, id trace.Digest) (*trace.Trace, error) {
	return s.traces.Do(ctx, id, func(ctx context.Context) (*trace.Trace, error) {
		s.mu.Lock()
		m := s.metas[id]
		resident := s.local.Contains(id)
		s.mu.Unlock()
		if !resident {
			// Blob-tier fallback: hydrate the trace onto local disk and
			// serve it through the same strict load path below.
			var err error
			if m, err = s.hydrate(ctx, id, false); err != nil {
				return nil, err
			}
		}
		t, err := s.loadLocal(id, m)
		if err != nil && s.blob != nil {
			// The local files may have been disk-evicted (or corrupted)
			// between the residency check and the load; re-pull the
			// authoritative copy from the bucket and retry once.
			if _, herr := s.hydrate(ctx, id, true); herr == nil {
				t, err = s.loadLocal(id, m)
			}
		}
		if err != nil {
			return nil, err
		}
		s.local.Get(id)
		return t, nil
	})
}

// loadLocal decodes a trace from its disk-tier file, enforcing the
// store's strictness. It runs outside the locks.
//
// The store is strict where the capture-recovery loader is
// forgiving: a content-addressed trace that loads short — its file
// missing or undecodable, fewer entries than its sidecar recorded, or
// entry ids not starting at 0 — is corruption, not a crash to salvage,
// and serving it would silently break the digest contract every
// analysis relies on.
func (s *Store) loadLocal(id trace.Digest, m Meta) (*trace.Trace, error) {
	t, err := trace.Load(s.tracePath(id))
	if err != nil {
		return nil, fmt.Errorf("corpus: trace %s corrupted on disk: %w", id, err)
	}
	if t.Len() != m.Entries || t.Entries[0].EID != 0 {
		return nil, fmt.Errorf("corpus: trace %s corrupted on disk: loaded %d entries, want %d from entry id 0",
			id, t.Len(), m.Entries)
	}
	t.Name = m.Name // files of earlier releases carry the digest as name
	if s.opts.VerifyOnLoad {
		if got := t.ComputeDigest(); got != id {
			return nil, fmt.Errorf("corpus: trace %s corrupted on disk (digest %s)", id, got)
		}
	}
	return t, nil
}

// ViewsCtx returns the memoized view web of a stored trace. Concurrent
// misses on one trace share one build, run by the first caller under
// its ctx; a waiter whose ctx ends returns the context's error at once,
// and if the builder's ctx ends first, the build stops and a live
// waiter builds in its place. The returned web is immutable; callers on
// the diff path hand it straight to diff.ViewDiffWebs.
func (s *Store) ViewsCtx(ctx context.Context, id trace.Digest) (*views.Web, error) {
	return s.webs.Do(ctx, id, func(ctx context.Context) (*views.Web, error) {
		t, err := s.get(ctx, id)
		if err != nil {
			return nil, err
		}
		return views.BuildCtx(ctx, t)
	})
}

// Delete removes a trace from every tier, including disk and — when a
// blob tier is configured — the bucket. A trace resident only in the
// bucket (disk-evicted locally, or written by another cluster node) is
// deletable too.
func (s *Store) Delete(id trace.Digest) error {
	// Under the write lock, a Put or hydration of the same content runs
	// wholly before this Delete or wholly after it, keeping its files.
	unlock, err := s.lockWrites()
	if err != nil {
		return err
	}
	defer unlock()
	s.mu.Lock()
	if _, ok := s.metas[id]; !ok {
		if s.blob == nil {
			err := s.notFoundLocked(id)
			s.mu.Unlock()
			return err
		}
		// Not known locally at all: the bucket decides existence.
		s.mu.Unlock()
		if _, err := s.blobMeta(context.Background(), id); err != nil {
			return err
		}
		s.mu.Lock()
	}
	delete(s.metas, id)
	s.local.Remove(id)
	s.traces.Remove(id)
	s.webs.Remove(id)
	delete(s.sketches, id)
	s.mu.Unlock()

	if err := s.removeLocalFiles(id); err != nil {
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
	resident := s.local.Keys()
	st := Stats{Traces: len(resident)}
	if s.blob != nil {
		st.RemoteTraces = len(s.metas) - len(resident)
	}
	for _, id := range resident {
		st.EntriesOnDisk += s.metas[id].Entries
	}
	s.mu.Unlock()
	st.OpenSessions, st.SessionEntries = s.sessionStats()
	st.TraceCache, _ = s.traces.Snapshot()
	st.WebCache, st.WebWaits = s.webs.Snapshot()
	st.Evictions = st.TraceCache.Evictions + st.WebCache.Evictions
	st.Puts = s.puts.Load()
	st.Dedups = s.dedups.Load()
	if s.blob != nil {
		bs := s.blobCounters.Snapshot()
		st.Blob = &bs
	}
	return st
}
