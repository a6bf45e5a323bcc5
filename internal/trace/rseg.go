package trace

// RSEG is the binary columnar segment format: the durable on-disk form of
// a trace (or one segment of a segmented trace), designed so that loading
// is bounded by page faults rather than decoding.
//
// Layout (version 1):
//
//	header   (12 bytes)  magic "RSEG", version, flags, CRC32 of the first 8 bytes
//	blocks               one column block per thread, then one symbol block
//	footer               name, entry total, symbol-block index, per-thread block index
//	tail     (16 bytes)  footer offset (u64 LE), footer CRC32 (u32 LE), magic "GESR"
//
// Entries are grouped by thread and stored as per-column streams inside
// each thread block: entry ids as zig-zag deltas (monotone within a
// thread), event kinds as one dictionary byte per entry, every string
// field as a varint reference into the shared symbol block, and the
// nested representations (self/target/args/stacks) as compact varint
// streams. All strings in the file live in the single symbol block, so a
// reader interns each distinct string exactly once and decodes entry
// columns without allocating or copying per field.
//
// Each block is individually CRC'd (over its stored bytes, so integrity
// checks never require decompression) and indexed from the footer with
// its offset, stored length, raw length, entry count, and first entry
// id. That index is what makes the format lazily readable: a Reader
// (rsegreader.go) maps the file, verifies header/footer structurally,
// interns the symbol block, and then materializes individual thread
// blocks only when they are touched.
//
// Truncation and corruption are structural, never heuristic: a missing
// tail magic, an out-of-range footer offset, a CRC mismatch, or a column
// overrun each fail with a *FormatError carrying the byte offset of the
// damage.
//
// Optional per-block compression (DEFLATE) is a writer option; the flag
// is recorded in the header and per-block raw lengths in the footer.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	rsegMagic     = "RSEG"
	rsegTailMagic = "GESR"
	rsegVersion   = 1

	rsegHeaderSize = 12
	rsegTailSize   = 16

	rsegFlagCompressed = 1 << 0
)

// Format identifies a trace encoding: RSEG on disk, JSONL for export
// and interchange.
type Format uint8

const (
	// FormatRSEG is the binary columnar segment format.
	FormatRSEG Format = iota
	// FormatJSONL is the JSON-lines interchange format of WriteJSONL.
	FormatJSONL
)

func (f Format) String() string {
	switch f {
	case FormatRSEG:
		return "rseg"
	case FormatJSONL:
		return "jsonl"
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

// FormatError describes a structurally invalid trace file: where the
// damage is (byte offset into the file) and what was expected there.
// Decoders return it for every malformed input — truncation, bit rot,
// bad counts — so callers (notably the CLI) can name the offending file
// and offset instead of surfacing a raw decode error or panicking.
type FormatError struct {
	Path   string // file path, "" when decoding from memory
	Format string // "rseg", "jsonl", ...
	Offset int64  // byte offset of the problem within the file
	Msg    string
}

func (e *FormatError) Error() string {
	name := e.Path
	if name == "" {
		name = "<memory>"
	}
	return fmt.Sprintf("trace: malformed %s file %s: at offset %d: %s", e.Format, name, e.Offset, e.Msg)
}

// RSEGOptions configure the RSEG writer.
type RSEGOptions struct {
	// Compress DEFLATE-compresses each block. Loads must then inflate
	// touched blocks, trading the zero-copy column scan for smaller
	// files; leave off for hot corpora, on for cold archives.
	Compress bool
}

// WriteRSEG writes the trace in the RSEG columnar format with default
// options (no compression).
func (t *Trace) WriteRSEG(w io.Writer) error {
	return t.WriteRSEGOpts(w, RSEGOptions{})
}

// rsegBlock is one encoded block on its way to disk.
type rsegBlock struct {
	tid      ThreadID
	count    int
	firstEID EntryID
	payload  []byte // stored bytes (possibly compressed)
	rawLen   int    // uncompressed length
	crc      uint32 // over payload as stored
	offset   int64  // assigned at assembly
}

// WriteRSEGOpts writes the trace in the RSEG columnar format.
func (t *Trace) WriteRSEGOpts(w io.Writer, opts RSEGOptions) error {
	fs := &fileSyms{}

	// Group entries by thread, preserving trace order (so entry ids are
	// monotone within each block), and encode each thread's columns.
	order := make([]ThreadID, 0, 8)
	cols := make(map[ThreadID]*rsegThreadCols)
	for i := range t.Entries {
		e := &t.Entries[i]
		tc, ok := cols[e.TID]
		if !ok {
			tc = newRSEGThreadCols()
			cols[e.TID] = tc
			order = append(order, e.TID)
		}
		tc.add(fs, e)
	}

	flags := uint8(0)
	if opts.Compress {
		flags |= rsegFlagCompressed
	}

	blocks := make([]*rsegBlock, 0, len(order)+1)
	for _, tid := range order {
		tc := cols[tid]
		payload := tc.assemble()
		b := &rsegBlock{tid: tid, count: tc.count, firstEID: tc.firstEID, rawLen: len(payload)}
		var err error
		if b.payload, err = rsegStore(payload, opts.Compress); err != nil {
			return fmt.Errorf("trace: rseg encode %q: %w", t.Name, err)
		}
		b.crc = crc32.ChecksumIEEE(b.payload)
		blocks = append(blocks, b)
	}

	// Symbol block: every distinct string referenced by any column, in
	// reference order (refs are 1-based; 0 is the empty string).
	var symBuf rsegColBuf
	symBuf.uvarint(uint64(len(fs.strs)))
	for _, s := range fs.strs {
		symBuf.str(s)
	}
	sym := &rsegBlock{rawLen: len(symBuf.b)}
	var err error
	if sym.payload, err = rsegStore(symBuf.b, opts.Compress); err != nil {
		return fmt.Errorf("trace: rseg encode %q: %w", t.Name, err)
	}
	sym.crc = crc32.ChecksumIEEE(sym.payload)

	// Assign offsets: header, thread blocks, symbol block, footer, tail.
	off := int64(rsegHeaderSize)
	for _, b := range blocks {
		b.offset = off
		off += int64(len(b.payload))
	}
	sym.offset = off
	off += int64(len(sym.payload))
	footerOff := off

	var footer rsegColBuf
	footer.str(t.Name)
	footer.uvarint(uint64(len(t.Entries)))
	footer.uvarint(uint64(sym.offset))
	footer.uvarint(uint64(len(sym.payload)))
	footer.uvarint(uint64(sym.rawLen))
	footer.uvarint(uint64(sym.crc))
	footer.uvarint(uint64(len(blocks)))
	for _, b := range blocks {
		footer.varint(int64(b.tid))
		footer.uvarint(uint64(b.offset))
		footer.uvarint(uint64(len(b.payload)))
		footer.uvarint(uint64(b.rawLen))
		footer.uvarint(uint64(b.crc))
		footer.uvarint(uint64(b.count))
		footer.varint(int64(b.firstEID))
	}

	// Header: magic, version, flags, 2 reserved bytes, CRC of the 8.
	var hdr [rsegHeaderSize]byte
	copy(hdr[:4], rsegMagic)
	hdr[4] = rsegVersion
	hdr[5] = flags
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(hdr[:8]))

	var tail [rsegTailSize]byte
	binary.LittleEndian.PutUint64(tail[0:8], uint64(footerOff))
	binary.LittleEndian.PutUint32(tail[8:12], crc32.ChecksumIEEE(footer.b))
	copy(tail[12:16], rsegTailMagic)

	write := func(p []byte) error {
		_, err := w.Write(p)
		return err
	}
	if err := write(hdr[:]); err != nil {
		return fmt.Errorf("trace: rseg write %q: %w", t.Name, err)
	}
	for _, b := range blocks {
		if err := write(b.payload); err != nil {
			return fmt.Errorf("trace: rseg write %q: %w", t.Name, err)
		}
	}
	for _, p := range [][]byte{sym.payload, footer.b, tail[:]} {
		if err := write(p); err != nil {
			return fmt.Errorf("trace: rseg write %q: %w", t.Name, err)
		}
	}
	return nil
}

// rsegStore returns the stored form of a block payload: the raw bytes,
// or their DEFLATE stream when compressing.
func rsegStore(raw []byte, compress bool) ([]byte, error) {
	if !compress {
		return raw, nil
	}
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(raw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// rsegColBuf is an append-only varint byte buffer — the writer-side
// column primitive.
type rsegColBuf struct {
	b   []byte
	tmp [binary.MaxVarintLen64]byte
}

func (c *rsegColBuf) uvarint(v uint64) {
	n := binary.PutUvarint(c.tmp[:], v)
	c.b = append(c.b, c.tmp[:n]...)
}

func (c *rsegColBuf) varint(v int64) {
	n := binary.PutVarint(c.tmp[:], v)
	c.b = append(c.b, c.tmp[:n]...)
}

func (c *rsegColBuf) byte(v byte) { c.b = append(c.b, v) }

func (c *rsegColBuf) str(s string) {
	c.uvarint(uint64(len(s)))
	c.b = append(c.b, s...)
}

// repr appends one representation: location, class ref, hash, string
// ref, sequence number.
func (c *rsegColBuf) repr(fs *fileSyms, r *Repr) {
	c.varint(int64(r.Loc))
	c.uvarint(uint64(fs.id(r.Class)))
	c.uvarint(r.Hash)
	c.uvarint(uint64(fs.id(r.Str)))
	c.varint(int64(r.Seq))
}

// rsegThreadCols accumulates one thread's column streams.
type rsegThreadCols struct {
	count    int
	firstEID EntryID
	lastEID  EntryID
	eids     rsegColBuf // zig-zag delta-coded entry ids
	kinds    rsegColBuf // one dictionary byte per entry
	methods  rsegColBuf // symbol refs for Entry.Method
	members  rsegColBuf // symbol refs for Event.Member
	selfs    rsegColBuf // Repr stream for Entry.Self
	targets  rsegColBuf // Repr stream for Event.Target
	args     rsegColBuf // count + Repr stream per entry
	stacks   rsegColBuf // count + Frame stream per entry
}

func newRSEGThreadCols() *rsegThreadCols { return &rsegThreadCols{} }

func (tc *rsegThreadCols) add(fs *fileSyms, e *Entry) {
	if tc.count == 0 {
		tc.firstEID = e.EID
		tc.eids.varint(int64(e.EID))
	} else {
		tc.eids.varint(int64(e.EID - tc.lastEID))
	}
	tc.lastEID = e.EID
	tc.count++

	tc.kinds.byte(byte(e.Event.Kind))
	tc.methods.uvarint(uint64(fs.id(e.Method)))
	tc.members.uvarint(uint64(fs.id(e.Event.Member)))
	tc.selfs.repr(fs, &e.Self)
	tc.targets.repr(fs, &e.Event.Target)

	tc.args.uvarint(uint64(len(e.Event.Args)))
	for i := range e.Event.Args {
		tc.args.repr(fs, &e.Event.Args[i])
	}
	tc.stacks.uvarint(uint64(len(e.Event.Stack)))
	for i := range e.Event.Stack {
		f := &e.Event.Stack[i]
		tc.stacks.uvarint(uint64(fs.id(f.Method)))
		tc.stacks.repr(fs, &f.Caller)
		tc.stacks.repr(fs, &f.Callee)
	}
}

// rsegColumnCount is the number of per-thread column streams.
const rsegColumnCount = 8

// assemble concatenates the thread's columns into one block payload:
// entry count, then each column as a length-prefixed byte stream.
func (tc *rsegThreadCols) assemble() []byte {
	var out rsegColBuf
	out.uvarint(uint64(tc.count))
	for _, col := range []*rsegColBuf{
		&tc.eids, &tc.kinds, &tc.methods, &tc.members,
		&tc.selfs, &tc.targets, &tc.args, &tc.stacks,
	} {
		out.uvarint(uint64(len(col.b)))
		out.b = append(out.b, col.b...)
	}
	return out.b
}

// ---- decoding ----

// rsegThreadInfo is one thread block's footer index entry.
type rsegThreadInfo struct {
	tid       ThreadID
	offset    int64
	storedLen int64
	rawLen    int64
	crc       uint32
	count     int
	firstEID  EntryID
}

// rsegFile is a structurally validated RSEG image: header and footer
// parsed and CRC-checked, block index in hand, no entry column decoded
// yet. It holds the raw bytes (typically an mmap) and decodes lazily.
type rsegFile struct {
	data    []byte
	path    string
	name    string
	total   int
	flags   uint8
	sym     rsegThreadInfo // tid/count/firstEID unused for the symbol block
	threads []rsegThreadInfo
}

// ferr builds a FormatError at an absolute file offset.
func (f *rsegFile) ferr(off int64, format string, a ...any) *FormatError {
	return &FormatError{Path: f.path, Format: "rseg", Offset: off, Msg: fmt.Sprintf(format, a...)}
}

// parseRSEG validates the structural shell of an RSEG image: header,
// tail, footer (CRC'd), and the block index, with every offset/length
// checked against the file bounds. Column payloads are not touched.
func parseRSEG(data []byte, path string) (*rsegFile, error) {
	f := &rsegFile{data: data, path: path}
	if len(data) < rsegHeaderSize+rsegTailSize {
		return nil, f.ferr(int64(len(data)), "file truncated: %d bytes, need at least %d",
			len(data), rsegHeaderSize+rsegTailSize)
	}
	if string(data[:4]) != rsegMagic {
		return nil, f.ferr(0, "bad magic %q (want %q)", data[:4], rsegMagic)
	}
	if data[4] != rsegVersion {
		return nil, f.ferr(4, "unsupported version %d (this reader handles %d)", data[4], rsegVersion)
	}
	f.flags = data[5]
	if got, want := binary.LittleEndian.Uint32(data[8:12]), crc32.ChecksumIEEE(data[:8]); got != want {
		return nil, f.ferr(8, "header checksum mismatch (stored %08x, computed %08x)", got, want)
	}

	tailOff := int64(len(data) - rsegTailSize)
	tail := data[tailOff:]
	if string(tail[12:16]) != rsegTailMagic {
		return nil, f.ferr(tailOff+12, "missing tail magic: file truncated mid-write")
	}
	footerOff := int64(binary.LittleEndian.Uint64(tail[0:8]))
	if footerOff < rsegHeaderSize || footerOff > tailOff {
		return nil, f.ferr(tailOff, "footer offset %d out of range [%d, %d]", footerOff, rsegHeaderSize, tailOff)
	}
	footer := data[footerOff:tailOff]
	if got, want := binary.LittleEndian.Uint32(tail[8:12]), crc32.ChecksumIEEE(footer); got != want {
		return nil, f.ferr(footerOff, "footer checksum mismatch (stored %08x, computed %08x)", got, want)
	}

	r := &rsegCursor{data: footer, base: footerOff, file: f}
	name, err := r.str("trace name")
	if err != nil {
		return nil, err
	}
	f.name = name
	total, err := r.count("entry total", 1<<40)
	if err != nil {
		return nil, err
	}
	f.total = int(total)
	if f.sym, err = r.blockInfo("symbol block", footerOff); err != nil {
		return nil, err
	}
	// Each thread index record takes at least 7 bytes, so the footer's own
	// length caps how many threads a well-formed file can declare — the
	// guard that keeps a corrupted count from provoking a giant allocation.
	nThreads, err := r.count("thread count", uint64(len(footer)))
	if err != nil {
		return nil, err
	}
	f.threads = make([]rsegThreadInfo, 0, nThreads)
	sum := 0
	for i := 0; i < int(nThreads); i++ {
		tid, err := r.varint("thread id")
		if err != nil {
			return nil, err
		}
		ti, err := r.blockInfo("thread block", footerOff)
		if err != nil {
			return nil, err
		}
		ti.tid = ThreadID(tid)
		// An entry occupies at least one byte in the kind column alone,
		// so a block can hold at most rawLen entries.
		cnt, err := r.count("thread entry count", uint64(ti.rawLen))
		if err != nil {
			return nil, err
		}
		ti.count = int(cnt)
		first, err := r.varint("thread first entry id")
		if err != nil {
			return nil, err
		}
		ti.firstEID = EntryID(first)
		sum += ti.count
		f.threads = append(f.threads, ti)
	}
	if sum != f.total {
		return nil, f.ferr(footerOff, "thread entry counts sum to %d, footer total is %d", sum, f.total)
	}
	if r.pos != len(footer) {
		return nil, f.ferr(footerOff+int64(r.pos), "%d trailing bytes after footer index", len(footer)-r.pos)
	}
	return f, nil
}

// block fetches, CRC-checks, and (if needed) inflates one block's
// payload bytes.
func (f *rsegFile) block(ti rsegThreadInfo, what string) ([]byte, error) {
	stored := f.data[ti.offset : ti.offset+ti.storedLen]
	if got := crc32.ChecksumIEEE(stored); got != ti.crc {
		return nil, f.ferr(ti.offset, "%s checksum mismatch (stored %08x, computed %08x)", what, ti.crc, got)
	}
	if f.flags&rsegFlagCompressed == 0 {
		if ti.rawLen != ti.storedLen {
			return nil, f.ferr(ti.offset, "%s raw length %d disagrees with stored length %d in an uncompressed file",
				what, ti.rawLen, ti.storedLen)
		}
		return stored, nil
	}
	raw := make([]byte, 0, ti.rawLen)
	zr := flate.NewReader(bytes.NewReader(stored))
	buf := bytes.NewBuffer(raw)
	if _, err := io.Copy(buf, io.LimitReader(zr, ti.rawLen+1)); err != nil {
		return nil, f.ferr(ti.offset, "%s inflate: %v", what, err)
	}
	if int64(buf.Len()) != ti.rawLen {
		return nil, f.ferr(ti.offset, "%s inflated to %d bytes, footer says %d", what, buf.Len(), ti.rawLen)
	}
	return buf.Bytes(), nil
}

// symbolsInto decodes the symbol block straight into a wire table,
// interning each string from the raw bytes — a symbol the process has
// already seen (any earlier load of a related trace) resolves without
// allocating a string at all.
func (f *rsegFile) symbolsInto(wt *wireTable) error {
	raw, err := f.block(f.sym, "symbol block")
	if err != nil {
		return err
	}
	r := &rsegCursor{data: raw, base: f.sym.offset, file: f}
	n, err := r.count("symbol count", uint64(len(raw)))
	if err != nil {
		return err
	}
	bs := make([][]byte, 0, n)
	for i := 0; i < int(n); i++ {
		ln, err := r.count("symbol length", uint64(len(raw)-r.pos))
		if err != nil {
			return err
		}
		b, off, err := r.bytes(int(ln), "symbol")
		if err != nil {
			return err
		}
		if len(b) == 0 {
			return f.ferr(off, "empty string in symbol block (ref %d)", i+1)
		}
		bs = append(bs, b)
	}
	wt.addBytes(bs)
	if r.pos != len(raw) {
		return f.ferr(f.sym.offset+int64(r.pos), "%d trailing bytes after symbol block", len(raw)-r.pos)
	}
	return nil
}

// decodeThread decodes one thread block into fully interned entries,
// resolving symbol refs against wt (the file's interned symbol table).
func (f *rsegFile) decodeThread(ti rsegThreadInfo, wt *wireTable) ([]Entry, error) {
	raw, err := f.block(ti, "thread block")
	if err != nil {
		return nil, err
	}
	r := &rsegCursor{data: raw, base: ti.offset, file: f}
	cnt, err := r.count("block entry count", uint64(f.total))
	if err != nil {
		return nil, err
	}
	if int(cnt) != ti.count {
		return nil, f.ferr(ti.offset, "block holds %d entries, footer index says %d", cnt, ti.count)
	}
	cols := make([]*rsegCursor, rsegColumnCount)
	for i := range cols {
		n, err := r.count("column length", uint64(len(raw)))
		if err != nil {
			return nil, err
		}
		b, off, err := r.bytes(int(n), "column")
		if err != nil {
			return nil, err
		}
		cols[i] = &rsegCursor{data: b, base: off, file: f}
	}
	if r.pos != len(raw) {
		return nil, f.ferr(ti.offset+int64(r.pos), "%d trailing bytes after columns", len(raw)-r.pos)
	}
	eids, kinds, methods, members, selfs, targets, args, stacks :=
		cols[0], cols[1], cols[2], cols[3], cols[4], cols[5], cols[6], cols[7]

	// Start from a bounded capacity: a corrupted count field must not
	// size a giant allocation before per-entry decoding (which consumes
	// real column bytes, failing fast on overrun) has vouched for it.
	cap0 := ti.count
	if cap0 > 1<<14 {
		cap0 = 1 << 14
	}
	entries := make([]Entry, 0, cap0)

	// Args and Stack slices are carved from shared slabs instead of one
	// allocation per entry. Decoded entries are read-only by contract
	// (Reader.Thread shares its cache slice), so neighboring entries
	// sharing a backing array is safe, and the decode drops from O(n)
	// small allocations to O(log n + n/slab).
	reprs := slab[Repr]{next: 16, limit: 1024}
	frames := slab[Frame]{next: 16, limit: 256}

	prev := EntryID(0)
	for i := 0; i < ti.count; i++ {
		e := Entry{TID: ti.tid}

		d, err := eids.varint("entry id delta")
		if err != nil {
			return nil, err
		}
		if i == 0 {
			e.EID = EntryID(d)
			if e.EID != ti.firstEID {
				return nil, f.ferr(ti.offset, "first entry id %d disagrees with footer index %d", e.EID, ti.firstEID)
			}
		} else {
			if d <= 0 {
				return nil, f.ferr(eids.at(), "non-increasing entry id (delta %d)", d)
			}
			e.EID = prev + EntryID(d)
		}
		prev = e.EID

		kb, off, err := kinds.bytes(1, "event kind")
		if err != nil {
			return nil, err
		}
		if int(kb[0]) >= len(kindNames) {
			return nil, f.ferr(off, "unknown event kind code %d", kb[0])
		}
		e.Event.Kind = EventKind(kb[0])

		if e.MethodSym, e.Method, err = methods.symref(wt, "method"); err != nil {
			return nil, err
		}
		if e.Event.MemberSym, e.Event.Member, err = members.symref(wt, "member"); err != nil {
			return nil, err
		}
		if e.Self, err = selfs.repr(wt); err != nil {
			return nil, err
		}
		if e.Event.Target, err = targets.repr(wt); err != nil {
			return nil, err
		}

		nArgs, err := args.count("arg count", uint64(len(args.data)))
		if err != nil {
			return nil, err
		}
		if nArgs > 0 {
			e.Event.Args = reprs.take(int(nArgs))
			for j := range e.Event.Args {
				if e.Event.Args[j], err = args.repr(wt); err != nil {
					return nil, err
				}
			}
		}
		nFrames, err := stacks.count("stack depth", uint64(len(stacks.data)))
		if err != nil {
			return nil, err
		}
		if nFrames > 0 {
			e.Event.Stack = frames.take(int(nFrames))
			for j := range e.Event.Stack {
				fr := &e.Event.Stack[j]
				if fr.MethodSym, fr.Method, err = stacks.symref(wt, "frame method"); err != nil {
					return nil, err
				}
				if fr.Caller, err = stacks.repr(wt); err != nil {
					return nil, err
				}
				if fr.Callee, err = stacks.repr(wt); err != nil {
					return nil, err
				}
			}
		}
		entries = append(entries, e)
	}
	for i, c := range cols {
		if c.pos != len(c.data) {
			return nil, f.ferr(c.base+int64(c.pos), "%d trailing bytes in column %d", len(c.data)-c.pos, i)
		}
	}
	return entries, nil
}

// slab hands out short slices carved from a shared backing array that
// starts at next elements and doubles up to limit, so a thread holding
// few args or frames allocates few.
type slab[T any] struct {
	buf         []T
	next, limit int
}

func (s *slab[T]) take(n int) []T {
	if n > len(s.buf) {
		s.buf = make([]T, max(s.next, n))
		s.next = min(2*s.next, s.limit)
	}
	out := s.buf[:n:n]
	s.buf = s.buf[n:]
	return out
}

// rsegCursor walks a byte region, reporting every malformation as a
// FormatError at the absolute file offset where it was found. For
// compressed blocks offsets are relative to the inflated stream but
// based at the block's file offset — close enough to localize damage.
type rsegCursor struct {
	data []byte
	pos  int
	base int64
	file *rsegFile
}

// at returns the cursor's current absolute offset.
func (r *rsegCursor) at() int64 { return r.base + int64(r.pos) }

func (r *rsegCursor) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, r.file.ferr(r.at(), "truncated or oversized varint (%s)", what)
	}
	r.pos += n
	return v, nil
}

func (r *rsegCursor) varint(what string) (int64, error) {
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		return 0, r.file.ferr(r.at(), "truncated or oversized varint (%s)", what)
	}
	r.pos += n
	return v, nil
}

// blockInfo reads one block's index record (offset, stored length, raw
// length, CRC) and bounds-checks it against the region the blocks must
// live in: [header end, limit).
func (r *rsegCursor) blockInfo(what string, limit int64) (rsegThreadInfo, error) {
	var ti rsegThreadInfo
	at := r.at()
	off, err := r.uvarint(what + " offset")
	if err != nil {
		return ti, err
	}
	stored, err := r.uvarint(what + " stored length")
	if err != nil {
		return ti, err
	}
	raw, err := r.uvarint(what + " raw length")
	if err != nil {
		return ti, err
	}
	crc, err := r.uvarint(what + " checksum")
	if err != nil {
		return ti, err
	}
	ti.offset, ti.storedLen, ti.rawLen, ti.crc = int64(off), int64(stored), int64(raw), uint32(crc)
	if crc > uint64(^uint32(0)) {
		return ti, r.file.ferr(at, "%s checksum %d exceeds 32 bits", what, crc)
	}
	if ti.offset < rsegHeaderSize || ti.storedLen < 0 || ti.offset+ti.storedLen > limit {
		return ti, r.file.ferr(at, "%s [%d, %d) outside the block region [%d, %d)",
			what, ti.offset, ti.offset+ti.storedLen, int64(rsegHeaderSize), limit)
	}
	// DEFLATE expands at most ~1032x; a raw length beyond that is a
	// corrupted field, rejected before it can size any buffer.
	if maxRaw := ti.storedLen*1032 + 64; ti.rawLen > maxRaw {
		return ti, r.file.ferr(at, "%s raw length %d implausible for %d stored bytes", what, ti.rawLen, ti.storedLen)
	}
	return ti, nil
}

// count reads a uvarint bounded by max — the guard that keeps a
// corrupted length field from provoking a giant allocation.
func (r *rsegCursor) count(what string, max uint64) (uint64, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > max {
		return 0, r.file.ferr(r.at(), "implausible %s %d (limit %d)", what, v, max)
	}
	return v, nil
}

// bytes consumes n raw bytes, returning them and their absolute offset.
func (r *rsegCursor) bytes(n int, what string) ([]byte, int64, error) {
	if n < 0 || r.pos+n > len(r.data) {
		return nil, 0, r.file.ferr(r.at(), "%s overruns its region (%d bytes wanted, %d left)",
			what, n, len(r.data)-r.pos)
	}
	off := r.at()
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, off, nil
}

func (r *rsegCursor) str(what string) (string, error) {
	n, err := r.count(what+" length", uint64(len(r.data)-r.pos))
	if err != nil {
		return "", err
	}
	b, _, err := r.bytes(int(n), what)
	if err != nil {
		return "", err
	}
	// string(b) copies: decoded strings never alias the (possibly
	// memory-mapped) file image.
	return string(b), nil
}

// symref reads a symbol reference and resolves it against the file
// symbol table. what must already read as a full label ("method symbol
// ref") — building it here would put a string concatenation on the
// per-field hot path.
func (r *rsegCursor) symref(wt *wireTable, what string) (Sym, string, error) {
	off := r.at()
	ref, err := r.uvarint(what)
	if err != nil {
		return NoSym, "", err
	}
	sym, s, rerr := wt.resolve(uint32(ref))
	if rerr != nil || ref > uint64(^uint32(0)) {
		return NoSym, "", r.file.ferr(off, "%s symbol ref %d out of range (%d symbols)", what, ref, len(wt.syms)-1)
	}
	return sym, s, nil
}

// repr reads one representation from a column stream.
func (r *rsegCursor) repr(wt *wireTable) (Repr, error) {
	loc, err := r.varint("repr location")
	if err != nil {
		return Repr{}, err
	}
	clsSym, cls, err := r.symref(wt, "repr class")
	if err != nil {
		return Repr{}, err
	}
	hash, err := r.uvarint("repr hash")
	if err != nil {
		return Repr{}, err
	}
	strSym, str, err := r.symref(wt, "repr value")
	if err != nil {
		return Repr{}, err
	}
	seq, err := r.varint("repr seq")
	if err != nil {
		return Repr{}, err
	}
	return Repr{Loc: Loc(loc), Class: cls, Hash: hash, Str: str, Seq: int(seq),
		ClassSym: clsSym, StrSym: strSym}, nil
}
