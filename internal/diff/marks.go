package diff

import (
	"math/bits"
	"slices"

	"repro/internal/trace"
)

// bitset is a set of small non-negative integers, one bit each.
type bitset []uint64

// newBitset returns an empty bitset with room for 0..n-1.
func newBitset(n int) bitset { return make(bitset, (n+63)>>6) }

func (b bitset) has(i int) bool {
	w := i >> 6
	return i >= 0 && w < len(b) && b[w]&(1<<(i&63)) != 0
}

// set adds i, which must be below the size the bitset was made or grown
// to.
func (b bitset) set(i int) { b[i>>6] |= 1 << (i & 63) }

func (b bitset) unset(i int) { b[i>>6] &^= 1 << (i & 63) }

// grow returns b with room for 0..n-1, its members kept.
func (b bitset) grow(n int) bitset {
	if w := (n + 63) >> 6; w > len(b) {
		b = append(b, make(bitset, w-len(b))...)
	}
	return b
}

// each calls f with every member, ascending.
func (b bitset) each(f func(int)) {
	for w, word := range b {
		for word != 0 {
			f(w<<6 | bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// EntrySet is a set of one trace's entry ids, a bitset indexed by entry
// id: the Δ sets of a Result.
type EntrySet struct {
	b bitset
}

func newEntrySet(t *trace.Trace) EntrySet { return EntrySet{newBitset(len(t.Entries))} }

// Has reports whether id is in the set.
func (s EntrySet) Has(id trace.EntryID) bool { return s.b.has(int(id)) }

// IDs returns the entries in the set, ascending.
func (s EntrySet) IDs() []trace.EntryID {
	var out []trace.EntryID
	s.b.each(func(i int) { out = append(out, trace.EntryID(i)) })
	return out
}

func (s EntrySet) add(id trace.EntryID) { s.b.set(int(id)) }

// marks is one side of a unit's similarity marks: a bitset over the
// positions of the unit's own thread view, plus the entries of other
// threads that cross-thread anchors marked. A unit over one thread of a
// many-threaded trace thus holds bits for its own thread only.
type marks struct {
	pos   bitset
	cross []trace.EntryID // ascending and distinct once the unit is done
}

// mark records the entry at thread-view position pos, or entry id when
// pos is -1 (the entry belongs to another thread).
func (m *marks) mark(pos int, id trace.EntryID) {
	if pos >= 0 {
		m.pos.set(pos)
	} else {
		m.cross = append(m.cross, id)
	}
}

// compact sorts the cross-thread marks and drops their repeats.
func (m *marks) compact() {
	slices.Sort(m.cross)
	m.cross = slices.Compact(m.cross)
}

// each calls f with the entry id of every mark, once each; tv is the
// thread view whose positions pos indexes.
func (m *marks) each(tv []trace.EntryID, f func(trace.EntryID)) {
	m.pos.each(func(p int) { f(tv[p]) })
	for _, id := range m.cross {
		f(id)
	}
}

// bytes is the marks' memory: bitset words and cross-thread entry ids.
func (m *marks) bytes() int64 { return int64(len(m.pos)+len(m.cross)) * 8 }
