package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// JSONL interchange: one record per line, for consumption by external
// tooling (spreadsheets, jq, notebook analysis) and for streaming traces
// between processes. RSEG remains the on-disk form; JSONL is lossless
// too and round-trips through ReadJSONL.
//
// Version 2 (current): the first line is a header record carrying the
// trace name and a compact symbol block — the distinct strings referenced
// by the trace, in order of first appearance. Entry lines then reference
// symbols by their 1-based index into that block, so a reader interns
// each distinct string exactly once and streams the (much smaller) entry
// lines without re-interning or re-hashing per line.
//
// Version 1 (legacy, still readable): no header; every line is one entry
// with all strings inlined. ReadJSONL detects the format from the first
// record, so traces saved by the old writer remain loadable.

const (
	jsonlFormat  = "rprism-trace"
	jsonlVersion = 2
)

type jsonHeader struct {
	Format  string   `json:"format"`
	Version int      `json:"version"`
	Name    string   `json:"name"`
	Symbols []string `json:"symbols"`
}

// jsonEntryV1 is the legacy self-contained entry line.
type jsonEntryV1 struct {
	EID    EntryID  `json:"eid"`
	TID    ThreadID `json:"tid"`
	Method string   `json:"method,omitempty"`
	Self   *Repr    `json:"self,omitempty"`
	Kind   string   `json:"kind"`
	Target *Repr    `json:"target,omitempty"`
	Member string   `json:"member,omitempty"`
	Args   []Repr   `json:"args,omitempty"`
	Stack  []Frame  `json:"stack,omitempty"`
}

// WireRepr is the v2 wire form of Repr: strings become symbol refs.
type WireRepr struct {
	Loc  Loc    `json:"l,omitempty"`
	Cls  uint32 `json:"c,omitempty"`
	Hash uint64 `json:"h,omitempty"`
	Str  uint32 `json:"s,omitempty"`
	Seq  int    `json:"q,omitempty"`
}

type WireFrame struct {
	Method uint32    `json:"m,omitempty"`
	Caller *WireRepr `json:"cr,omitempty"`
	Callee *WireRepr `json:"ce,omitempty"`
}

type WireEntry struct {
	EID    EntryID     `json:"eid"`
	TID    ThreadID    `json:"tid"`
	Method uint32      `json:"m,omitempty"`
	Self   *WireRepr   `json:"self,omitempty"`
	Kind   string      `json:"kind"`
	Target *WireRepr   `json:"t,omitempty"`
	Member uint32      `json:"mem,omitempty"`
	Args   []WireRepr  `json:"args,omitempty"`
	Stack  []WireFrame `json:"stack,omitempty"`
}

var kindByName = map[string]EventKind{}

func init() {
	for k := KindEOF; k <= KindEnd; k++ {
		kindByName[k.String()] = k
	}
}

// fileSyms assigns compact 1-based file-local symbol ids in order of
// first appearance, independent of the process-wide Sym values.
type fileSyms struct {
	ids  map[string]uint32
	strs []string
}

func (fs *fileSyms) id(s string) uint32 {
	if s == "" {
		return 0
	}
	if id, ok := fs.ids[s]; ok {
		return id
	}
	if fs.ids == nil {
		fs.ids = make(map[string]uint32)
	}
	id := uint32(len(fs.strs) + 1)
	fs.ids[s] = id
	fs.strs = append(fs.strs, s)
	return id
}

func (fs *fileSyms) repr(r Repr) *WireRepr {
	if r.IsZero() {
		return nil
	}
	return &WireRepr{Loc: r.Loc, Cls: fs.id(r.Class), Hash: r.Hash, Str: fs.id(r.Str), Seq: r.Seq}
}

// collect registers every symbol-bearing string of an entry, in the
// same field order the encoder references them (so file ids read as
// "first appearance" order).
func (fs *fileSyms) collect(e *Entry) {
	fs.id(e.Method)
	fs.id(e.Self.Class)
	fs.id(e.Self.Str)
	fs.id(e.Event.Target.Class)
	fs.id(e.Event.Target.Str)
	fs.id(e.Event.Member)
	for i := range e.Event.Args {
		fs.id(e.Event.Args[i].Class)
		fs.id(e.Event.Args[i].Str)
	}
	for i := range e.Event.Stack {
		f := &e.Event.Stack[i]
		fs.id(f.Method)
		fs.id(f.Caller.Class)
		fs.id(f.Caller.Str)
		fs.id(f.Callee.Class)
		fs.id(f.Callee.Str)
	}
}

// WriteJSONL writes the trace as JSON lines in the v2 format: a symbol
// header followed by symbol-referencing entry lines. Two passes — a
// symbol-collection scan, then direct encoding — so the extra memory is
// O(distinct symbols), not a second copy of the trace.
func (t *Trace) WriteJSONL(w io.Writer) error {
	fs := &fileSyms{}
	for i := range t.Entries {
		fs.collect(&t.Entries[i])
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr := jsonHeader{Format: jsonlFormat, Version: jsonlVersion, Name: t.Name, Symbols: fs.strs}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("trace: jsonl encode header: %w", err)
	}
	for i := range t.Entries {
		je := encodeWireEntry(fs, &t.Entries[i])
		if err := enc.Encode(je); err != nil {
			return fmt.Errorf("trace: jsonl encode entry %d: %w", je.EID, err)
		}
	}
	return bw.Flush()
}

// encodeWireEntry translates one entry into its symbol-referencing wire
// form, registering any new strings in fs. Shared by the JSONL writer
// (which pre-collects symbols for its header) and the streaming encoder
// (which ships symbol deltas alongside each segment frame).
func encodeWireEntry(fs *fileSyms, e *Entry) WireEntry {
	je := WireEntry{
		EID: e.EID, TID: e.TID,
		Method: fs.id(e.Method),
		Self:   fs.repr(e.Self),
		Kind:   e.Event.Kind.String(),
		Target: fs.repr(e.Event.Target),
		Member: fs.id(e.Event.Member),
	}
	if len(e.Event.Args) > 0 {
		je.Args = make([]WireRepr, len(e.Event.Args))
		for k, a := range e.Event.Args {
			je.Args[k] = WireRepr{Loc: a.Loc, Cls: fs.id(a.Class), Hash: a.Hash, Str: fs.id(a.Str), Seq: a.Seq}
		}
	}
	if len(e.Event.Stack) > 0 {
		je.Stack = make([]WireFrame, len(e.Event.Stack))
		for k, f := range e.Event.Stack {
			je.Stack[k] = WireFrame{Method: fs.id(f.Method), Caller: fs.repr(f.Caller), Callee: fs.repr(f.Callee)}
		}
	}
	return je
}

// ReadJSONL reconstructs a trace written by WriteJSONL — either format
// version. The name parameter is used when the stream carries no header
// (v1) or an empty header name. Any failure is a *FormatError at the
// decoder's byte offset.
func ReadJSONL(name string, r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	t, err := readJSONL(name, dec)
	if err != nil {
		return nil, &FormatError{Path: name, Format: "jsonl", Offset: dec.InputOffset(), Msg: err.Error()}
	}
	return t, nil
}

func readJSONL(name string, dec *json.Decoder) (*Trace, error) {
	var first json.RawMessage
	if err := dec.Decode(&first); err == io.EOF {
		return New(name), nil
	} else if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	var hdr jsonHeader
	if err := json.Unmarshal(first, &hdr); err == nil && hdr.Format == jsonlFormat {
		if hdr.Version != jsonlVersion {
			return nil, fmt.Errorf("unsupported version %d", hdr.Version)
		}
		if hdr.Name != "" {
			name = hdr.Name
		}
		return readJSONLv2(name, hdr.Symbols, dec)
	}
	return readJSONLv1(name, first, dec)
}

// readJSONLv2 interns the symbol block once, then streams entry lines,
// resolving symbol refs by array index — no per-line hashing.
func readJSONLv2(name string, symbols []string, dec *json.Decoder) (*Trace, error) {
	var wt wireTable
	wt.add(symbols)
	t := New(name)
	for {
		var je WireEntry
		if err := dec.Decode(&je); err == io.EOF {
			return t, nil
		} else if err != nil {
			return nil, fmt.Errorf("decode: %w", err)
		}
		e, err := wt.entry(&je)
		if err != nil {
			return nil, err
		}
		t.Entries = append(t.Entries, e)
	}
}

// wireTable resolves wire symbol refs back to interned symbols and their
// canonical strings. The table grows monotonically via add — the JSONL
// reader adds one header block, the streaming decoder adds each frame's
// symbol delta — and refs index the cumulative table (1-based; 0 is the
// empty string).
type wireTable struct {
	syms []Sym
	strs []string
}

// add interns a block of symbol strings and appends them to the table.
func (wt *wireTable) add(symbols []string) {
	if wt.syms == nil {
		wt.syms = make([]Sym, 1, len(symbols)+1)
		wt.strs = make([]string, 1, len(symbols)+1)
	}
	for _, s := range symbols {
		sym := Intern(s)
		wt.syms = append(wt.syms, sym)
		wt.strs = append(wt.strs, SymStr(sym)) // share the table's backing string
	}
}

// addBytes interns a block of symbol strings from their raw bytes and
// appends them to the table — the RSEG loader's batch path: one global
// lock round trip for the whole block, no per-string copy for strings
// the process has already interned.
func (wt *wireTable) addBytes(bs [][]byte) {
	if wt.syms == nil {
		wt.syms = make([]Sym, 1, len(bs)+1)
		wt.strs = make([]string, 1, len(bs)+1)
	}
	wt.syms, wt.strs = Symbols.InternBatch(bs, wt.syms, wt.strs)
}

func (wt *wireTable) resolve(id uint32) (Sym, string, error) {
	if int(id) >= len(wt.syms) {
		return NoSym, "", fmt.Errorf("trace: wire: symbol ref %d out of range (%d symbols)", id, len(wt.syms)-1)
	}
	return wt.syms[id], wt.strs[id], nil
}

func (wt *wireTable) repr(jr *WireRepr) (Repr, error) {
	if jr == nil {
		return Repr{}, nil
	}
	cls, clsStr, err := wt.resolve(jr.Cls)
	if err != nil {
		return Repr{}, err
	}
	str, strStr, err := wt.resolve(jr.Str)
	if err != nil {
		return Repr{}, err
	}
	return Repr{Loc: jr.Loc, Class: clsStr, Hash: jr.Hash, Str: strStr, Seq: jr.Seq,
		ClassSym: cls, StrSym: str}, nil
}

// entry decodes one wire entry, resolving every symbol ref against the
// cumulative table. The result carries both canonical strings and
// interned Syms, so it enters the pipeline fully keyed.
func (wt *wireTable) entry(je *WireEntry) (Entry, error) {
	kind, ok := kindByName[je.Kind]
	if !ok {
		return Entry{}, fmt.Errorf("trace: wire: unknown event kind %q", je.Kind)
	}
	mSym, mStr, err := wt.resolve(je.Method)
	if err != nil {
		return Entry{}, err
	}
	memSym, memStr, err := wt.resolve(je.Member)
	if err != nil {
		return Entry{}, err
	}
	e := Entry{
		EID: je.EID, TID: je.TID, Method: mStr, MethodSym: mSym,
		Event: Event{Kind: kind, Member: memStr, MemberSym: memSym},
	}
	if e.Self, err = wt.repr(je.Self); err != nil {
		return Entry{}, err
	}
	if e.Event.Target, err = wt.repr(je.Target); err != nil {
		return Entry{}, err
	}
	if len(je.Args) > 0 {
		e.Event.Args = make([]Repr, len(je.Args))
		for k := range je.Args {
			if e.Event.Args[k], err = wt.repr(&je.Args[k]); err != nil {
				return Entry{}, err
			}
		}
	}
	if len(je.Stack) > 0 {
		e.Event.Stack = make([]Frame, len(je.Stack))
		for k := range je.Stack {
			jf := &je.Stack[k]
			fmSym, fmStr, err := wt.resolve(jf.Method)
			if err != nil {
				return Entry{}, err
			}
			f := Frame{Method: fmStr, MethodSym: fmSym}
			if f.Caller, err = wt.repr(jf.Caller); err != nil {
				return Entry{}, err
			}
			if f.Callee, err = wt.repr(jf.Callee); err != nil {
				return Entry{}, err
			}
			e.Event.Stack[k] = f
		}
	}
	return e, nil
}

// readJSONLv1 reads the legacy headerless format, starting from the
// already-consumed first record. Entries are interned on the way in.
func readJSONLv1(name string, first json.RawMessage, dec *json.Decoder) (*Trace, error) {
	t := New(name)
	appendV1 := func(raw []byte) error {
		var je jsonEntryV1
		if err := json.Unmarshal(raw, &je); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		kind, ok := kindByName[je.Kind]
		if !ok {
			return fmt.Errorf("unknown event kind %q", je.Kind)
		}
		e := Entry{
			EID: je.EID, TID: je.TID, Method: je.Method,
			Event: Event{Kind: kind, Member: je.Member, Args: je.Args, Stack: je.Stack},
		}
		if je.Self != nil {
			e.Self = *je.Self
		}
		if je.Target != nil {
			e.Event.Target = *je.Target
		}
		internEntry(&e, true)
		t.Entries = append(t.Entries, e)
		return nil
	}
	if err := appendV1(first); err != nil {
		return nil, err
	}
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			return t, nil
		} else if err != nil {
			return nil, fmt.Errorf("decode: %w", err)
		}
		if err := appendV1(raw); err != nil {
			return nil, err
		}
	}
}
