package trace

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// SegmentPath names segment i of the segmented trace name under dir:
// <dir>/<name>.<i>.seg, the index zero-padded to six digits. Readers
// that know a trace's segment count open its files by this name rather
// than listing the directory.
func SegmentPath(dir, name string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.%06d.seg", name, i))
}

// SegmentIndex extracts the numeric segment index from a path of the
// form <dir>/<name>.<index>.seg, the inverse of SegmentPath (it also
// accepts the bare indices foreign producers write).
func SegmentIndex(path, name string) (int, bool) {
	base := filepath.Base(path)
	mid, ok := strings.CutPrefix(base, name+".")
	if !ok {
		return 0, false
	}
	mid, ok = strings.CutSuffix(mid, ".seg")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(mid)
	return n, err == nil && n >= 0
}

// sortSegmentPaths orders segment files numerically by their segment
// index, not lexicographically by filename: our own writer zero-pads to
// six digits, but foreign producers (and writers that outlive the pad
// width) emit bare indices, where string order would interleave seg.10
// between seg.1 and seg.2. Paths without a parseable index sort after
// the indexed ones, by name — the id-consecutiveness check then reports
// them rather than silently reordering.
func sortSegmentPaths(paths []string, name string) {
	sort.SliceStable(paths, func(i, j int) bool {
		ni, oki := SegmentIndex(paths[i], name)
		nj, okj := SegmentIndex(paths[j], name)
		switch {
		case oki && okj:
			return ni < nj
		case oki != okj:
			return oki
		default:
			return paths[i] < paths[j]
		}
	})
}

// SegmentWriter implements RPRISM's smart trace segmentation (§5): long
// executions are recorded as a series of relatively short trace segments;
// once a segment finishes, its data is offloaded to disk and the tracing
// memory reclaimed. Entry ids remain globally consecutive across segments
// so that view links (which are trace indices) survive segmentation.
type SegmentWriter struct {
	dir     string
	name    string
	limit   int // entries per segment before a flush
	current *Trace
	base    EntryID // eid of the first entry in the current segment
	next    EntryID
	flushed int
}

// NewSegmentWriter creates a writer that stores RSEG segments of at most
// limit entries under dir. A limit of 0 means unbounded (a single
// segment).
func NewSegmentWriter(dir, name string, limit int) (*SegmentWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: segment dir: %w", err)
	}
	return &SegmentWriter{dir: dir, name: name, limit: limit, current: New(name)}, nil
}

// Append records an entry, flushing the current segment to disk when the
// segment limit is reached. It returns the globally consecutive entry id.
func (w *SegmentWriter) Append(tid ThreadID, method string, self Repr, ev Event) (EntryID, error) {
	id := w.next
	w.next++
	e := Entry{EID: id, TID: tid, Method: method, Self: self, Event: ev}
	internEntry(&e, false)
	w.current.Entries = append(w.current.Entries, e)
	if w.limit > 0 && len(w.current.Entries) >= w.limit {
		if err := w.Flush(); err != nil {
			return id, err
		}
	}
	return id, nil
}

// Flush writes the current segment to disk and starts a fresh one.
func (w *SegmentWriter) Flush() error {
	if len(w.current.Entries) == 0 {
		return nil
	}
	path := SegmentPath(w.dir, w.name, w.flushed)
	if err := w.current.Save(path); err != nil {
		return err
	}
	w.flushed++
	w.base = w.next
	w.current = New(w.name)
	return nil
}

// Close flushes any remaining entries.
func (w *SegmentWriter) Close() error { return w.Flush() }

// Segments returns how many segment files the writer has flushed: after
// Close, the trace occupies SegmentPath(dir, name, 0..Segments()-1).
func (w *SegmentWriter) Segments() int { return w.flushed }

// SegmentLoadReport describes what LoadSegmentsReport recovered: how
// many segments were read and whether a truncated trailing segment
// (crash mid-write) was skipped.
type SegmentLoadReport struct {
	// Segments is the number of segment files successfully loaded.
	Segments int
	// SkippedTail is the path of a trailing segment dropped because it
	// failed to decode ("" when the load was clean).
	SkippedTail string
	// Warning is a human-readable account of the skipped tail.
	Warning string
}

// Truncated reports whether a trailing segment was skipped.
func (r SegmentLoadReport) Truncated() bool { return r.SkippedTail != "" }

// LoadSegments reassembles a segmented trace written by SegmentWriter,
// verifying that entry ids are globally consecutive. A truncated
// trailing segment — the signature of a crash mid-write — is skipped
// with a logged warning rather than failing the whole load; use
// LoadSegmentsReport to observe the skip programmatically.
func LoadSegments(dir, name string) (*Trace, error) {
	t, rep, err := LoadSegmentsReport(dir, name)
	if err != nil {
		return nil, err
	}
	if rep.Truncated() {
		log.Printf("trace: %s", rep.Warning)
	}
	return t, nil
}

// LoadSegmentsReport is LoadSegments returning a load report instead of
// logging. Decode failure of the *last* segment resyncs: the readable
// prefix is returned along with a report naming the dropped file. Decode
// failure of any earlier segment — corruption inside the sequence, which
// skipping would silently hole — still fails the load, as does a first
// segment so damaged that nothing is recoverable.
func LoadSegmentsReport(dir, name string) (*Trace, *SegmentLoadReport, error) {
	pattern := filepath.Join(dir, name+".*.seg")
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: glob %q: %w", pattern, err)
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("trace: no segments match %q", pattern)
	}
	sortSegmentPaths(paths, name)
	return reassemble(len(paths), func(i int) string { return paths[i] }, name, true)
}

// LoadSegmentCount is the strict loader for a trace of n segments: it
// opens exactly SegmentPath(dir, name, 0..n-1), never listing dir, and
// fails if any of them is missing or does not decode. A stray
// higher-numbered segment is never read.
func LoadSegmentCount(dir, name string, n int) (*Trace, error) {
	t, _, err := reassemble(n, func(i int) string { return SegmentPath(dir, name, i) }, name, false)
	return t, err
}

// reassemble loads segment files path(0..n-1) in order into one trace,
// checking that entry ids run on consecutively from 0. Nothing is sized
// from n, which may come from an untrusted count. The first segment's
// trace is adopted as it is, so a single-segment trace is never copied.
// With salvageTail set, a last segment that fails to decode is skipped
// and reported instead of failing the load.
func reassemble(n int, path func(int) string, name string, salvageTail bool) (*Trace, *SegmentLoadReport, error) {
	var out *Trace
	rep := &SegmentLoadReport{}
	for i := 0; i < n; i++ {
		p := path(i)
		seg, err := Load(p)
		if err != nil {
			if salvageTail && i == n-1 && out != nil && out.Len() > 0 {
				rep.SkippedTail = p
				rep.Warning = fmt.Sprintf(
					"skipped truncated trailing segment %s (crash mid-write?): %v; recovered %d entries from %d segment(s)",
					p, err, out.Len(), rep.Segments)
				break
			}
			return nil, nil, err
		}
		base := 0
		if out != nil {
			base = out.Len()
		}
		for j := range seg.Entries {
			if int(seg.Entries[j].EID) != base+j {
				return nil, nil, fmt.Errorf("trace: segment %s: entry id %d out of order (want %d)",
					p, seg.Entries[j].EID, base+j)
			}
		}
		if out == nil {
			out = seg
		} else {
			out.Entries = append(out.Entries, seg.Entries...)
		}
		rep.Segments++
	}
	if out == nil {
		return nil, nil, fmt.Errorf("trace: no segments of %s", name)
	}
	out.Name = name
	return out, rep, nil
}
