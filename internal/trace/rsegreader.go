package trace

import (
	"fmt"
	"os"
	"sort"
	"sync"
)

// Reader is a lazily materializing view over one RSEG file. Opening a
// reader maps the file (no read of the column data), validates the
// structural shell (header, footer, block index — a few pages), and
// interns the symbol block once. Thread columns decode on first touch:
// an analysis that visits two of a trace's thirty threads pays the
// decode cost of exactly two thread blocks; the rest of the file is
// never paged in.
//
// Decoded entries never alias the mapping (strings are interned copies,
// everything else is value fields), so they outlive Close.
//
// A Reader is safe for concurrent use; concurrent first touches of the
// same thread are serialized per reader.
type Reader struct {
	f     *rsegFile
	close func() error
	wt    wireTable

	mu      sync.Mutex
	threads map[ThreadID]*readerThread
	matCnt  int // thread blocks materialized
	matEnt  int // entries materialized
	full    *Trace
}

type readerThread struct {
	once    sync.Once
	entries []Entry
	err     error
}

// ReaderStats reports how much of the file a Reader has actually
// decoded — the observable form of the lazy-materialization contract.
type ReaderStats struct {
	Threads             int   // thread blocks in the file
	ThreadsMaterialized int   // thread blocks decoded so far
	Entries             int   // entries in the file
	EntriesMaterialized int   // entries decoded so far
	MappedBytes         int64 // size of the mapped image
	Symbols             int   // distinct strings in the symbol block
}

// OpenRSEG maps an RSEG file and validates its structure. The column
// data stays cold until threads are touched. Close releases the mapping.
func OpenRSEG(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: rseg open: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("trace: rseg open: %w", err)
	}
	data, release, err := mmapFile(f, fi.Size())
	if err != nil {
		return nil, fmt.Errorf("trace: rseg mmap %s: %w", path, err)
	}
	r, err := newReader(data, path)
	if err != nil {
		release()
		return nil, err
	}
	r.close = release
	return r, nil
}

// OpenRSEGBytes opens a reader over an in-memory RSEG image. The name
// labels FormatErrors ("" reads as <memory>). The reader does not copy
// data; the caller must keep it immutable until Close.
func OpenRSEGBytes(data []byte, name string) (*Reader, error) {
	return newReader(data, name)
}

func newReader(data []byte, path string) (*Reader, error) {
	f, err := parseRSEG(data, path)
	if err != nil {
		return nil, err
	}
	r := &Reader{f: f, threads: make(map[ThreadID]*readerThread, len(f.threads))}
	// Interning the symbol block up front is the one eager step: every
	// thread block references it, it is typically a few KB, and paying
	// it once here keeps Thread() allocation-free for strings.
	if err := f.symbolsInto(&r.wt); err != nil {
		return nil, err
	}
	for i := range f.threads {
		if _, dup := r.threads[f.threads[i].tid]; dup {
			return nil, f.ferr(0, "thread %d has two blocks", f.threads[i].tid)
		}
		r.threads[f.threads[i].tid] = &readerThread{}
	}
	return r, nil
}

// Close releases the file mapping. Entries and traces already
// materialized remain valid.
func (r *Reader) Close() error {
	if r.close != nil {
		c := r.close
		r.close = nil
		return c()
	}
	return nil
}

// Name returns the trace name recorded in the footer.
func (r *Reader) Name() string { return r.f.name }

// Len returns the total number of entries in the file.
func (r *Reader) Len() int { return r.f.total }

// ThreadIDs returns the thread ids present in the file, in block order
// (the order threads first appeared in the original trace).
func (r *Reader) ThreadIDs() []ThreadID {
	out := make([]ThreadID, len(r.f.threads))
	for i := range r.f.threads {
		out[i] = r.f.threads[i].tid
	}
	return out
}

// ThreadLen returns the entry count of one thread without decoding it
// (the count lives in the footer index), and false for an unknown tid.
func (r *Reader) ThreadLen(tid ThreadID) (int, bool) {
	for i := range r.f.threads {
		if r.f.threads[i].tid == tid {
			return r.f.threads[i].count, true
		}
	}
	return 0, false
}

// Thread materializes (on first touch) and returns one thread's entries
// in execution order, with their original entry ids. The slice is cached
// and shared: callers must treat it as read-only.
func (r *Reader) Thread(tid ThreadID) ([]Entry, error) {
	st, ok := r.threads[tid]
	if !ok {
		return nil, fmt.Errorf("trace: rseg %s: no thread %d", r.f.name, tid)
	}
	st.once.Do(func() {
		var info *rsegThreadInfo
		for i := range r.f.threads {
			if r.f.threads[i].tid == tid {
				info = &r.f.threads[i]
				break
			}
		}
		st.entries, st.err = r.f.decodeThread(*info, &r.wt)
		if st.err == nil {
			r.mu.Lock()
			r.matCnt++
			r.matEnt += len(st.entries)
			r.mu.Unlock()
		}
	})
	return st.entries, st.err
}

// Select materializes only the named threads and assembles them into a
// standalone trace: entries merged in original execution order, then
// renumbered to the dense 0..n-1 entry ids the analysis pipeline
// requires. Untouched threads stay cold — this is the lazy-diff entry
// point: diffing one thread pair out of a many-thread trace decodes
// exactly those two thread columns.
//
// Renumbering means a selected sub-trace has its own content digest; it
// is an analysis scope, not a storage form.
func (r *Reader) Select(tids ...ThreadID) (*Trace, error) {
	total := 0
	for _, tid := range tids {
		n, ok := r.ThreadLen(tid)
		if !ok {
			return nil, fmt.Errorf("trace: rseg %s: no thread %d", r.f.name, tid)
		}
		total += n
	}
	merged := make([]Entry, 0, total)
	for _, tid := range tids {
		es, err := r.Thread(tid)
		if err != nil {
			return nil, err
		}
		merged = append(merged, es...)
	}
	// Entries are value copies at this point (append copied them), so
	// renumbering cannot disturb the reader's per-thread caches.
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].EID < merged[j].EID })
	for i := range merged {
		merged[i].EID = EntryID(i)
	}
	return &Trace{Name: r.f.name, Entries: merged}, nil
}

// Trace materializes the whole file into an eagerly decoded trace,
// preserving original entry ids, and caches the result. For a segment
// written mid-sequence the ids start at the segment's base.
func (r *Reader) Trace() (*Trace, error) {
	r.mu.Lock()
	if r.full != nil {
		t := r.full
		r.mu.Unlock()
		return t, nil
	}
	r.mu.Unlock()

	if r.f.total == 0 {
		t := New(r.f.name)
		r.mu.Lock()
		r.full = t
		r.mu.Unlock()
		return t, nil
	}

	// Materialize every thread, then scatter by entry id. Entry ids in a
	// well-formed file are contiguous from the minimum (a trace starts
	// at 0; a mid-sequence segment at its base), which the fill verifies.
	// The full slice is sized only after every block has decoded: the
	// footer's entry total is attacker-controlled in a corrupt file,
	// while decoded entries are vouched for byte by byte.
	minEID := EntryID(0)
	for i := range r.f.threads {
		if i == 0 || r.f.threads[i].firstEID < minEID {
			minEID = r.f.threads[i].firstEID
		}
	}
	perThread := make([][]Entry, 0, len(r.f.threads))
	decoded := 0
	for _, tid := range r.ThreadIDs() {
		es, err := r.Thread(tid)
		if err != nil {
			return nil, err
		}
		perThread = append(perThread, es)
		decoded += len(es)
	}
	if decoded != r.f.total {
		return nil, r.f.ferr(0, "threads decode to %d entries, footer total is %d", decoded, r.f.total)
	}
	entries := make([]Entry, decoded)
	for _, es := range perThread {
		for i := range es {
			pos := int(es[i].EID - minEID)
			if pos < 0 || pos >= len(entries) {
				return nil, r.f.ferr(0, "entry id %d outside the contiguous range [%d, %d)",
					es[i].EID, minEID, minEID+EntryID(len(entries)))
			}
			entries[pos] = es[i]
		}
	}
	for i := range entries {
		if entries[i].EID != minEID+EntryID(i) {
			return nil, r.f.ferr(0, "entry ids not contiguous: position %d holds id %d (want %d)",
				i, entries[i].EID, minEID+EntryID(i))
		}
	}
	t := &Trace{Name: r.f.name, Entries: entries}
	r.mu.Lock()
	r.full = t
	r.mu.Unlock()
	return t, nil
}

// Stats snapshots how much of the file has been decoded.
func (r *Reader) Stats() ReaderStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReaderStats{
		Threads:             len(r.f.threads),
		ThreadsMaterialized: r.matCnt,
		Entries:             r.f.total,
		EntriesMaterialized: r.matEnt,
		MappedBytes:         int64(len(r.f.data)),
		Symbols:             len(r.wt.syms) - 1,
	}
}
