package corpus

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/atomicfile"
	"repro/internal/blob"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// The blob tier is the third, bottom-most trace tier: a shared object
// store (S3-compatible bucket, or a filesystem/memory backend in
// tests) behind the local disk tier. Puts write through — a trace is
// not admitted until its objects are durable in the bucket — and reads
// of digests absent locally hydrate: the trace file is pulled back
// onto local disk, re-admitted to the index, and served through the
// ordinary strict load path, so corruption checks apply to hydrated
// traces exactly as to native ones.
//
// Object keys mirror the disk tier's file names under an optional
// prefix: <prefix><digest>.000000.seg, <prefix><digest>.meta.json,
// <prefix><digest>.sketch.json. The meta object is written last — it
// is the commit marker; a reader that finds it can rely on the trace
// object being complete. A multi-segment meta object of earlier
// releases is refused like a local sidecar; buckets get no migration.
//
// With DiskCacheTraces set, local disk becomes a bounded cache over
// the bucket: past the bound the least recently used local copy is
// deleted and its index entry moves to the remote-meta cache. The
// digest stays resolvable — the next read hydrates it back — which is
// what lets a cluster node serve a corpus larger than its own disk.

// blobKey maps a local trace or sidecar file name to its object key.
func (s *Store) blobKey(name string) string {
	return s.blobPrefix + name
}

// BlobCounters exposes the blob-tier counters (nil-safe to snapshot
// only when a blob tier is configured; the server wires them into
// /stats).
func (s *Store) BlobCounters() *metrics.BlobCounters { return &s.blobCounters }

// HasBlob reports whether a blob tier is configured.
func (s *Store) HasBlob() bool { return s.blob != nil }

// LocalLen returns how many traces are indexed on the local disk tier
// (== Len() when no blob tier is configured).
func (s *Store) LocalLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// blobGet fetches one object, counting the transfer.
func (s *Store) blobGet(ctx context.Context, key string) ([]byte, error) {
	s.blobCounters.Gets.Add(1)
	data, err := blob.GetBytes(ctx, s.blob, key)
	if err != nil {
		if !errors.Is(err, blob.ErrNotFound) {
			s.blobCounters.Errors.Add(1)
		}
		return nil, err
	}
	s.blobCounters.BytesDown.Add(int64(len(data)))
	return data, nil
}

// blobPut stores one object, counting the transfer.
func (s *Store) blobPut(ctx context.Context, key string, data []byte) error {
	s.blobCounters.Puts.Add(1)
	if err := s.blob.Put(ctx, key, data); err != nil {
		s.blobCounters.Errors.Add(1)
		return err
	}
	s.blobCounters.BytesUp.Add(int64(len(data)))
	return nil
}

// blobList lists object keys under a prefix, counting the call.
func (s *Store) blobList(ctx context.Context, prefix string) ([]string, error) {
	s.blobCounters.Lists.Add(1)
	keys, err := s.blob.List(ctx, prefix)
	if err != nil {
		s.blobCounters.Errors.Add(1)
	}
	return keys, err
}

// uploadBlob writes the bytes Put wrote locally through to the bucket:
// trace, sketch unless nil, and meta last as the commit marker.
func (s *Store) uploadBlob(ctx context.Context, id trace.Digest, traceRaw, sketchRaw, metaRaw []byte) error {
	if err := s.blobPut(ctx, s.blobKey(filepath.Base(s.tracePath(id))), traceRaw); err != nil {
		return err
	}
	if sketchRaw != nil {
		if err := s.blobPut(ctx, s.blobKey(id.String()+".sketch.json"), sketchRaw); err != nil {
			return err
		}
	}
	return s.blobPut(ctx, s.blobKey(id.String()+".meta.json"), metaRaw)
}

// blobMeta fetches and decodes a trace's meta object, as untrusted as
// a local sidecar.
func (s *Store) blobMeta(ctx context.Context, id trace.Digest) (Meta, error) {
	key := s.blobKey(id.String() + ".meta.json")
	raw, err := s.blobGet(ctx, key)
	if err != nil {
		if errors.Is(err, blob.ErrNotFound) {
			s.mu.Lock()
			nerr := s.notFoundLocked(id)
			s.mu.Unlock()
			return Meta{}, nerr
		}
		return Meta{}, fmt.Errorf("corpus: blob meta %s: %w", id, err)
	}
	return decodeMeta(raw, id.String(), key)
}

// hydrate pulls a trace from the bucket into the local disk tier and
// admits it to the index. With force set, local state is ignored and
// the trace re-downloaded — the recovery path when local files
// were evicted or corrupted between an index check and a load. The
// local meta sidecar is written last, mirroring Put's commit order.
func (s *Store) hydrate(ctx context.Context, id trace.Digest, force bool) (Meta, error) {
	if s.blob == nil {
		s.mu.Lock()
		err := s.notFoundLocked(id)
		s.mu.Unlock()
		return Meta{}, err
	}
	unlock, err := s.lockWrites()
	if err != nil {
		return Meta{}, err
	}
	defer unlock()

	s.mu.Lock()
	m, ok := s.index[id]
	s.mu.Unlock()
	if ok && !force {
		return m, nil
	}

	m, err = s.blobMeta(ctx, id)
	if err != nil {
		return Meta{}, err
	}
	// Fetch the trace by name (no LIST) and rename it into place, so a
	// forced re-hydration never rewrites a file another Get is reading.
	// Until the sidecar commits it, a crash leaves orphans New sweeps.
	p := s.tracePath(id)
	data, err := s.blobGet(ctx, s.blobKey(filepath.Base(p)))
	if err == nil {
		err = atomicfile.Write(p, data)
	}
	if err != nil {
		s.removeLocalFiles(id)
		return Meta{}, fmt.Errorf("corpus: hydrate %s: %w", id, err)
	}
	if data, err := s.blobGet(ctx, s.blobKey(id.String()+".sketch.json")); err == nil {
		_ = atomicfile.Write(s.sketchPath(id), data)
	}
	raw, err := json.Marshal(m)
	if err == nil {
		err = atomicfile.Write(s.metaPath(id), raw)
	}
	if err != nil {
		s.removeLocalFiles(id)
		return Meta{}, fmt.Errorf("corpus: %w", err)
	}

	s.mu.Lock()
	s.index[id] = m
	delete(s.remote, id)
	s.mu.Unlock()
	s.blobCounters.Hydrations.Add(1)
	s.touchLocal(id)
	return m, nil
}

// removeLocalFiles deletes a trace's disk-tier files — the meta
// sidecar first, as it is the commit marker, then the sketch and the
// trace file — returning the first failure other than a file already
// gone.
func (s *Store) removeLocalFiles(id trace.Digest) error {
	var first error
	for _, p := range []string{s.metaPath(id), s.sketchPath(id), s.tracePath(id)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) && first == nil {
			first = err
		}
	}
	return first
}

// touchLocal marks id most-recently-used in the disk tier and evicts
// past DiskCacheTraces. Only writers call it (caller holds putMu), so
// file removal cannot race another eviction; a concurrent reader that
// loses its files mid-load recovers through Get's re-hydration.
func (s *Store) touchLocal(id trace.Digest) {
	s.mu.Lock()
	s.touchLocalLocked(id)
	var evicted []trace.Digest
	if s.blob != nil && s.opts.DiskCacheTraces > 0 {
		for s.localLRU.Len() > s.opts.DiskCacheTraces {
			oldest := s.localLRU.Back()
			eid := oldest.Value.(trace.Digest)
			s.localLRU.Remove(oldest)
			delete(s.local, eid)
			// The trace leaves the local index but stays resolvable: its
			// meta moves to the remote cache and the next read hydrates.
			if m, ok := s.index[eid]; ok {
				s.remote[eid] = m
				delete(s.index, eid)
			}
			evicted = append(evicted, eid)
		}
	}
	s.mu.Unlock()
	for _, eid := range evicted {
		s.removeLocalFiles(eid)
		s.blobCounters.DiskEvictions.Add(1)
	}
}

// touchLocalLocked refreshes recency without evicting — the read-path
// variant, safe to call under s.mu alone.
func (s *Store) touchLocalLocked(id trace.Digest) {
	if el, ok := s.local[id]; ok {
		s.localLRU.MoveToFront(el)
		return
	}
	s.local[id] = s.localLRU.PushFront(id)
}

// dropLocalLocked forgets id's disk-tier bookkeeping (Delete path).
// Caller holds s.mu.
func (s *Store) dropLocalLocked(id trace.Digest) {
	if el, ok := s.local[id]; ok {
		s.localLRU.Remove(el)
		delete(s.local, id)
	}
	delete(s.remote, id)
}

// deleteBlob removes a trace's objects from the bucket by name, with no
// LIST. The meta object goes first: it is the commit marker, so a
// partially deleted trace reads as absent, not corrupted.
func (s *Store) deleteBlob(ctx context.Context, id trace.Digest) error {
	for _, name := range []string{id.String() + ".meta.json", id.String() + ".sketch.json", filepath.Base(s.tracePath(id))} {
		s.blobCounters.Deletes.Add(1)
		if err := s.blob.Delete(ctx, s.blobKey(name)); err != nil {
			s.blobCounters.Errors.Add(1)
			return fmt.Errorf("corpus: delete %s from blob: %w", id, err)
		}
	}
	return nil
}

// ListAll returns metadata for every trace in every tier: the local
// index plus traces living only in the bucket. Remote metas are
// fetched once and cached; a key that disappears mid-walk (concurrent
// delete) is skipped.
func (s *Store) ListAll(ctx context.Context) ([]Meta, error) {
	out := s.List()
	if s.blob == nil {
		return out, nil
	}
	keys, err := s.blobList(ctx, s.blobKey(""))
	if err != nil {
		return nil, fmt.Errorf("corpus: list blob: %w", err)
	}
	seen := make(map[string]bool, len(out))
	for _, m := range out {
		seen[m.ID] = true
	}
	for _, k := range keys {
		base := strings.TrimPrefix(k, s.blobPrefix)
		idStr, ok := strings.CutSuffix(base, ".meta.json")
		if !ok || seen[idStr] {
			continue
		}
		id, err := trace.ParseDigest(idStr)
		if err != nil {
			continue
		}
		m, err := s.Meta(id)
		if err != nil {
			continue
		}
		seen[idStr] = true
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
