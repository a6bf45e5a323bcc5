package trace

import "sync"

// Sym is an interned symbol: a dense integer id standing for a method
// signature, class name, member name, or value-representation string.
// Interning happens once — at trace-construction (or load) time — so the
// hot analysis paths (view keying, event equality, correlation) compare
// single machine words instead of hashing and comparing strings per event.
// The zero Sym (NoSym) means "no symbol": either the empty string or a
// field that has not been interned yet.
type Sym uint32

// NoSym is the absent symbol. It is what the empty string interns to, and
// what the Sym fields of hand-built entries hold before EnsureSyms.
const NoSym Sym = 0

// SymbolTable is a string interner with precomputed 64-bit FNV-1a hashes.
// It is safe for concurrent use; lookups of already-interned strings take
// only a read lock. The hash fingerprints are computed once per distinct
// string (off the hot path) and exist for consumers that need a stable
// key space wider than table-local ids — notably future sharded/parallel
// diffing, where per-shard tables cannot share dense ids.
type SymbolTable struct {
	mu     sync.RWMutex
	ids    map[string]Sym
	strs   []string // index = Sym; strs[0] = ""
	hashes []uint64 // index = Sym; hashes[0] = 0
	bytes  int64
}

// NewSymbolTable returns an empty table.
func NewSymbolTable() *SymbolTable {
	return &SymbolTable{
		ids:    make(map[string]Sym),
		strs:   []string{""},
		hashes: []uint64{0},
	}
}

// Intern returns the symbol for s, assigning the next id on first sight.
// The empty string interns to NoSym. Distinct strings always receive
// distinct symbols, even under 64-bit hash collisions: identity is keyed
// by the string itself, the hash is merely a precomputed fingerprint.
func (st *SymbolTable) Intern(s string) Sym {
	if s == "" {
		return NoSym
	}
	st.mu.RLock()
	id, ok := st.ids[s]
	st.mu.RUnlock()
	if ok {
		return id
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if id, ok = st.ids[s]; ok {
		return id
	}
	id = Sym(len(st.strs))
	st.ids[s] = id
	st.strs = append(st.strs, s)
	st.hashes = append(st.hashes, fnv64a(s))
	st.bytes += int64(len(s))
	return id
}

// InternBatch interns every byte string in bs under a single lock
// acquisition, appending each symbol and its canonical string to syms
// and strs (returned re-sliced). One lock round trip per *block* instead
// of two atomic operations per *string* is what keeps loading a
// many-symbol trace file cheap; strings already in the table are found
// without copying their bytes.
func (st *SymbolTable) InternBatch(bs [][]byte, syms []Sym, strs []string) ([]Sym, []string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, b := range bs {
		if len(b) == 0 {
			syms = append(syms, NoSym)
			strs = append(strs, "")
			continue
		}
		id, ok := st.ids[string(b)]
		if !ok {
			s := string(b)
			id = Sym(len(st.strs))
			st.ids[s] = id
			st.strs = append(st.strs, s)
			st.hashes = append(st.hashes, fnv64a(s))
			st.bytes += int64(len(s))
		}
		syms = append(syms, id)
		strs = append(strs, st.strs[id])
	}
	return syms, strs
}

// Lookup returns the symbol for s without interning it.
func (st *SymbolTable) Lookup(s string) (Sym, bool) {
	if s == "" {
		return NoSym, true
	}
	st.mu.RLock()
	id, ok := st.ids[s]
	st.mu.RUnlock()
	return id, ok
}

// Str returns the string a symbol stands for ("" for NoSym or an id this
// table never issued).
func (st *SymbolTable) Str(id Sym) string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if int(id) >= len(st.strs) {
		return ""
	}
	return st.strs[id]
}

// Hash returns the precomputed 64-bit fingerprint of a symbol's string.
func (st *SymbolTable) Hash(id Sym) uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if int(id) >= len(st.hashes) {
		return 0
	}
	return st.hashes[id]
}

// Len returns the number of distinct symbols interned.
func (st *SymbolTable) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.strs) - 1
}

// Bytes returns the total size of the distinct interned strings — the
// "interned bytes" statistic reported by rprism-bench.
func (st *SymbolTable) Bytes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.bytes
}

// fnv64a is FNV-1a over the string bytes, allocation-free.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Symbols is the process-wide symbol table. Every trace produced or
// loaded in this process interns into it, which makes Sym values directly
// comparable across traces — the property the differencing hot paths rely
// on. Trace files carry their own compact symbol block and are remapped
// into this table once at load time.
var Symbols = NewSymbolTable()

// Intern interns s into the process-wide table.
func Intern(s string) Sym { return Symbols.Intern(s) }

// SymStr resolves a symbol from the process-wide table.
func SymStr(id Sym) string { return Symbols.Str(id) }

// EnsureSym returns sym if already interned, otherwise interns s. It is
// the bridge for entries built by hand (tests, external producers) whose
// Sym fields are still zero.
func EnsureSym(sym Sym, s string) Sym {
	if sym != NoSym || s == "" {
		return sym
	}
	return Intern(s)
}

// SymbolStats summarizes the process-wide table for reporting.
type SymbolStats struct {
	Distinct int   `json:"distinct"` // distinct symbols interned
	Bytes    int64 `json:"bytes"`    // total bytes of distinct interned strings
}

// Stats snapshots a table's statistics.
func (st *SymbolTable) Stats() SymbolStats {
	return SymbolStats{Distinct: st.Len(), Bytes: st.Bytes()}
}

// GlobalSymbolStats snapshots the process-wide table's statistics.
func GlobalSymbolStats() SymbolStats {
	return Symbols.Stats()
}
