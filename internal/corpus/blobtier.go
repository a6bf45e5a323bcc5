package corpus

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
// onto local disk, made resident again, and served through the
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
// deleted, while the trace stays a member with its meta and any
// resolved sketch. The digest stays resolvable — the next read
// hydrates it back — which is what lets a cluster node serve a corpus
// larger than its own disk. List learns the bucket's other members.

// blobKey maps a local trace or sidecar file name to its object key.
func (s *Store) blobKey(name string) string {
	return s.blobPrefix + name
}

// BlobCounters exposes the blob-tier counters (nil-safe to snapshot
// only when a blob tier is configured; the server wires them into
// /stats).
func (s *Store) BlobCounters() *metrics.BlobCounters { return &s.blobCounters }

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
// makes it a resident member. With force set, local state is ignored
// and the trace re-downloaded — the recovery path when local files
// were evicted or corrupted between a residency check and a load. The
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
	m := s.metas[id]
	resident := s.local.Contains(id)
	s.mu.Unlock()
	if resident && !force {
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
	s.metas[id] = m
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

// touchLocal marks id most recently used in the disk tier and deletes
// the files of the traces that pushes past DiskCacheTraces. Only
// writers call it (caller holds putMu), so file removal cannot race
// another eviction; a concurrent reader that loses its files mid-load
// recovers through Get's re-hydration.
func (s *Store) touchLocal(id trace.Digest) {
	for _, eid := range s.local.Add(id, struct{}{}) {
		// The trace stays a member: the next read hydrates it back.
		s.removeLocalFiles(eid)
		s.blobCounters.DiskEvictions.Add(1)
	}
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

// learnBlob walks the bucket with one LIST and admits each meta object
// whose digest the store does not know yet as a member, with one GET
// each. A failed LIST leaves the known members as they are (Blob.Errors
// counts it), and a meta that is gone by the time it is read (a
// concurrent delete) or fails its checks is skipped.
func (s *Store) learnBlob(ctx context.Context) {
	keys, err := s.blobList(ctx, s.blobKey(""))
	if err != nil {
		return
	}
	for _, k := range keys {
		idStr, ok := strings.CutSuffix(strings.TrimPrefix(k, s.blobPrefix), ".meta.json")
		if !ok {
			continue
		}
		if id, err := trace.ParseDigest(idStr); err == nil {
			s.Meta(id)
		}
	}
}
