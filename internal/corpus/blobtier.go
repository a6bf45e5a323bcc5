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

	"repro/internal/blob"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// The blob tier is the third, bottom-most trace tier: a shared object
// store (S3-compatible bucket, or a filesystem/memory backend in
// tests) behind the local disk tier. Puts write through — a trace is
// not admitted until its objects are durable in the bucket — and reads
// of digests absent locally hydrate: the segment set is pulled back
// onto local disk, re-admitted to the index, and served through the
// ordinary strict load path, so corruption checks apply to hydrated
// traces exactly as to native ones.
//
// Object keys mirror the disk tier's file names under an optional
// prefix: <prefix><digest>.<seq>.seg, <prefix><digest>.meta.json,
// <prefix><digest>.sketch.json. The meta object is written last — it
// is the commit marker; a reader that finds it can rely on the
// segments being complete.
//
// With DiskCacheTraces set, local disk becomes a bounded cache over
// the bucket: past the bound the least recently used local copy is
// deleted and its index entry moves to the remote-meta cache. The
// digest stays resolvable — the next read hydrates it back — which is
// what lets a cluster node serve a corpus larger than its own disk.

// blobKey maps a local sidecar/segment file name to its object key.
func (s *Store) blobKey(name string) string {
	return s.blobPrefix + name
}

// BlobCounters exposes the blob-tier counters (nil-safe to snapshot
// only when a blob tier is configured; the server wires them into
// /stats).
func (s *Store) BlobCounters() *metrics.BlobCounters { return &s.blobCounters }

// HasBlob reports whether a blob tier is configured.
func (s *Store) HasBlob() bool { return s.blob != nil }

// LocalLen returns how many traces are resident in the local disk
// tier (== Len() when no blob tier is configured).
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

// uploadBlob writes a freshly stored trace through to the bucket: its
// m.Segments segment files, the sketch sidecar (best effort, like its
// local counterpart), and the meta object last as the commit marker.
// Caller holds putMu, so the local files cannot change underneath.
func (s *Store) uploadBlob(ctx context.Context, id trace.Digest, m Meta, metaRaw []byte) error {
	for i := 0; i < m.Segments; i++ {
		p := trace.SegmentPath(s.dir, id.String(), i)
		data, err := os.ReadFile(p)
		if err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
		if err := s.blobPut(ctx, s.blobKey(filepath.Base(p)), data); err != nil {
			return err
		}
	}
	if data, err := os.ReadFile(s.sketchPath(id)); err == nil {
		if err := s.blobPut(ctx, s.blobKey(id.String()+".sketch.json"), data); err != nil {
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
// the segment set re-downloaded — the recovery path when local files
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
	// Fetch the segments by name from the meta's count, with no bucket
	// LIST. Each is renamed into place, so a forced re-hydration never
	// rewrites a segment another Get is reading. Until the local sidecar
	// below commits them, a crash leaves orphans that the next New sweeps.
	for i := 0; i < m.Segments; i++ {
		p := trace.SegmentPath(s.dir, id.String(), i)
		data, err := s.blobGet(ctx, s.blobKey(filepath.Base(p)))
		if err == nil {
			err = writeRename(p, data)
		}
		if err != nil {
			s.removeLocalFiles(id, m.Segments)
			return Meta{}, fmt.Errorf("corpus: hydrate %s: %w", id, err)
		}
	}
	if data, err := s.blobGet(ctx, s.blobKey(id.String()+".sketch.json")); err == nil {
		_ = os.WriteFile(s.sketchPath(id), data, 0o644)
	}
	raw, err := json.Marshal(m)
	if err == nil {
		err = writeRename(s.metaPath(id), raw)
	}
	if err != nil {
		s.removeLocalFiles(id, m.Segments)
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
// segments numbered below segs — returning the first failure other than
// a file already gone. Segments are written in order, so removal stops
// at the first one missing: an untrusted count bounds no work.
func (s *Store) removeLocalFiles(id trace.Digest, segs int) error {
	var first error
	remove := func(p string) bool {
		err := os.Remove(p)
		if err != nil && !errors.Is(err, os.ErrNotExist) && first == nil {
			first = err
		}
		return !errors.Is(err, os.ErrNotExist)
	}
	remove(s.metaPath(id))
	remove(s.sketchPath(id))
	for i := 0; i < segs; i++ {
		if !remove(trace.SegmentPath(s.dir, id.String(), i)) {
			break
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
	evicted := make(map[trace.Digest]int) // digest -> segment count
	if s.blob != nil && s.opts.DiskCacheTraces > 0 {
		for s.localLRU.Len() > s.opts.DiskCacheTraces {
			oldest := s.localLRU.Back()
			eid := oldest.Value.(trace.Digest)
			s.localLRU.Remove(oldest)
			delete(s.local, eid)
			// The trace leaves the local index but stays resolvable: its
			// meta moves to the remote cache and the next read hydrates.
			m, ok := s.index[eid]
			if ok {
				s.remote[eid] = m
				delete(s.index, eid)
			}
			evicted[eid] = m.Segments
		}
	}
	s.mu.Unlock()
	for eid, segs := range evicted {
		s.removeLocalFiles(eid, segs)
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

// deleteBlob removes every object of a trace from the bucket.
func (s *Store) deleteBlob(ctx context.Context, id trace.Digest) error {
	keys, err := s.blobList(ctx, s.blobKey(id.String()+"."))
	if err != nil {
		return fmt.Errorf("corpus: delete %s from blob: %w", id, err)
	}
	// Meta object first: it is the commit marker, so removing it first
	// makes a partially deleted trace read as absent, not corrupted.
	sort.Slice(keys, func(i, j int) bool {
		mi := strings.HasSuffix(keys[i], ".meta.json")
		mj := strings.HasSuffix(keys[j], ".meta.json")
		if mi != mj {
			return mi
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		s.blobCounters.Deletes.Add(1)
		if err := s.blob.Delete(ctx, k); err != nil {
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
