package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func intRepr(v int64) Repr {
	return PrimRepr("Int", itoa(v))
}

func itoa(v int64) string {
	// small helper to avoid importing strconv in every call site
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func TestAppendAssignsConsecutiveEIDs(t *testing.T) {
	tr := New("t")
	for i := 0; i < 5; i++ {
		id := tr.Append(1, "main", Repr{}, Event{Kind: KindCall, Member: "m"})
		if int(id) != i {
			t.Fatalf("Append #%d returned eid %d", i, id)
		}
	}
	for i, e := range tr.Entries {
		if int(e.EID) != i {
			t.Errorf("entry %d has EID %d", i, e.EID)
		}
	}
}

func TestAtBounds(t *testing.T) {
	tr := New("t")
	tr.Append(1, "m", Repr{}, Event{Kind: KindCall, Member: "x"})
	if _, ok := tr.At(0); !ok {
		t.Error("At(0) should exist")
	}
	if _, ok := tr.At(-1); ok {
		t.Error("At(-1) should not exist")
	}
	if _, ok := tr.At(1); ok {
		t.Error("At(1) should not exist")
	}
}

func TestPadEOFEqualizesLengths(t *testing.T) {
	l, r := New("l"), New("r")
	for i := 0; i < 3; i++ {
		l.Append(1, "m", Repr{}, Event{Kind: KindCall, Member: "x"})
	}
	r.Append(1, "m", Repr{}, Event{Kind: KindCall, Member: "x"})
	PadEOF(l, r)
	if l.Len() != r.Len() {
		t.Fatalf("lengths differ after PadEOF: %d vs %d", l.Len(), r.Len())
	}
	if l.Len() != 4 {
		t.Fatalf("left length = %d, want 4 (3 entries + 1 eof)", l.Len())
	}
	if !l.Entries[3].IsEOF() {
		t.Error("last left entry should be eof")
	}
	for i := 1; i < 4; i++ {
		if !r.Entries[i].IsEOF() {
			t.Errorf("right entry %d should be eof", i)
		}
	}
	// EIDs stay consecutive through padding.
	for i, e := range r.Entries {
		if int(e.EID) != i {
			t.Errorf("right entry %d has EID %d after padding", i, e.EID)
		}
	}
}

func TestPadEOFBothEmpty(t *testing.T) {
	l, r := New("l"), New("r")
	PadEOF(l, r)
	if l.Len() != 1 || r.Len() != 1 {
		t.Fatalf("lengths = %d,%d, want 1,1", l.Len(), r.Len())
	}
}

func TestEventEqualIgnoresLocationAndSeq(t *testing.T) {
	a := Entry{
		TID: 1, Method: "m",
		Event: Event{Kind: KindCall, Target: Repr{Loc: 10, Class: "C", Hash: 7, Str: "C:[x]", Seq: 1},
			Member: "run", Args: []Repr{intRepr(3)}},
	}
	b := a
	b.Event.Target.Loc = 99
	b.Event.Target.Seq = 42
	b.TID = 5
	b.EID = 17
	if !EventEqual(&a, &b) {
		t.Error("entries differing only in location/seq/context must be =e")
	}
}

func TestEventEqualDistinguishes(t *testing.T) {
	base := Entry{Event: Event{Kind: KindSet, Target: Repr{Class: "C", Hash: 1, Str: "s"},
		Member: "f", Args: []Repr{intRepr(32)}}}

	diffValue := base
	diffValue.Event.Args = []Repr{intRepr(1)}
	if EventEqual(&base, &diffValue) {
		t.Error("different written values must not be =e")
	}

	diffField := base
	diffField.Event.Member = "g"
	if EventEqual(&base, &diffField) {
		t.Error("different fields must not be =e")
	}

	diffKind := base
	diffKind.Event.Kind = KindGet
	if EventEqual(&base, &diffKind) {
		t.Error("different kinds must not be =e")
	}

	diffClass := base
	diffClass.Event.Target.Class = "D"
	if EventEqual(&base, &diffClass) {
		t.Error("different target classes must not be =e")
	}

	diffArity := base
	diffArity.Event.Args = nil
	if EventEqual(&base, &diffArity) {
		t.Error("different arities must not be =e")
	}
}

func TestEventEqualForkByStackShape(t *testing.T) {
	mkFork := func(methods ...string) Entry {
		var frames []Frame
		for _, m := range methods {
			frames = append(frames, Frame{Method: m, Callee: Repr{Class: "C"}})
		}
		return Entry{Event: Event{Kind: KindFork, Member: "7", Stack: frames}}
	}
	a := mkFork("main", "startWorkers")
	b := mkFork("main", "startWorkers")
	b.Event.Member = "12" // different child tid must not matter
	if !EventEqual(&a, &b) {
		t.Error("forks with identical spawn stacks must be =e")
	}
	c := mkFork("main", "other")
	if EventEqual(&a, &c) {
		t.Error("forks with different spawn stacks must not be =e")
	}
}

func TestStackSimilarity(t *testing.T) {
	f := func(m string) Frame { return Frame{Method: m, Callee: Repr{Class: "C"}} }
	cases := []struct {
		a, b []Frame
		want float64
	}{
		{nil, nil, 1},
		{[]Frame{f("a")}, []Frame{f("a")}, 1},
		{[]Frame{f("a")}, []Frame{f("b")}, 0},
		{[]Frame{f("x"), f("a")}, []Frame{f("y"), f("a")}, 0.5},
		{[]Frame{f("a")}, []Frame{f("x"), f("a")}, 0.5},
		{[]Frame{f("a")}, nil, 0},
	}
	for i, c := range cases {
		if got := StackSimilarity(c.a, c.b); got != c.want {
			t.Errorf("case %d: similarity = %v, want %v", i, got, c.want)
		}
	}
}

func TestStackSimilaritySymmetric(t *testing.T) {
	gen := func(seed int64) []Frame {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(6)
		frames := make([]Frame, n)
		for i := range frames {
			frames[i] = Frame{Method: string(rune('a' + r.Intn(3)))}
		}
		return frames
	}
	prop := func(s1, s2 int64) bool {
		a, b := gen(s1), gen(s2)
		return StackSimilarity(a, b) == StackSimilarity(b, a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSerializationString(t *testing.T) {
	s := Object("Pair", []Serialization{Prim("Int", "1"), Prim("Int", "2")})
	if got, want := s.String(), "Pair:[Int:[1],Int:[2]]"; got != want {
		t.Errorf("serialization = %q, want %q", got, want)
	}
}

func TestSerializationTruncation(t *testing.T) {
	// Build a deep nesting whose rendering exceeds MaxReprString.
	s := Prim("Int", "1")
	for i := 0; i < 100; i++ {
		s = Object("Box", []Serialization{s})
	}
	if got := s.String(); len(got) > MaxReprString {
		t.Errorf("rendered length %d exceeds cap %d", len(got), MaxReprString)
	}
}

func TestSerializationTruncatesOnRuneBoundary(t *testing.T) {
	// A primitive whose literal is all multi-byte runes: a naive byte cut
	// at MaxReprString would split one in half.
	lit := strings.Repeat("é", MaxReprString) // 2 bytes each
	s := Prim("Str", lit)
	got := s.String()
	if len(got) > MaxReprString {
		t.Fatalf("rendered length %d exceeds cap %d", len(got), MaxReprString)
	}
	if !utf8.ValidString(got) {
		t.Errorf("truncated rendering is not valid UTF-8: %q", got)
	}
	// Three-byte runes land the cut differently; must still be valid.
	s3 := Prim("Str", strings.Repeat("€", MaxReprString))
	if got := s3.String(); !utf8.ValidString(got) || len(got) > MaxReprString {
		t.Errorf("3-byte rune truncation broken: len=%d valid=%v", len(got), utf8.ValidString(got))
	}
}

func TestSerializationHashDistinguishesBeyondTruncation(t *testing.T) {
	// Two values identical in the first 128 chars but differing deeper must
	// still get different hashes: the hash covers the full structure.
	long := make([]Serialization, 40)
	for i := range long {
		long[i] = Prim("Int", "7")
	}
	a := Object("Arr", long)
	longB := make([]Serialization, 40)
	copy(longB, long)
	longB[39] = Prim("Int", "8")
	b := Object("Arr", longB)
	if a.String() != b.String() {
		t.Skip("truncation point moved; adjust test sizes")
	}
	if a.HashValue() == b.HashValue() {
		t.Error("hash must distinguish values that truncation conflates")
	}
}

func TestHashValueNeverZero(t *testing.T) {
	prop := func(typ, lit string) bool {
		return Prim(typ, lit).HashValue() != 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPrimReprAndObjectRepr(t *testing.T) {
	p := PrimRepr("Int", "42")
	if p.Loc != NoLoc || !p.HasValue() || p.Class != "Int" {
		t.Errorf("bad prim repr: %+v", p)
	}
	s := Object("C", nil)
	o := ObjectRepr(5, "C", 2, s, true)
	if o.Loc != 5 || o.Seq != 2 || !o.HasValue() {
		t.Errorf("bad object repr: %+v", o)
	}
	empty := ObjectRepr(5, "C", 2, s, false)
	if empty.HasValue() {
		t.Error("opted-out object must have empty value representation")
	}
	if o9 := ObjectRepr(9, "C", 3, s, true); !o9.ValueEqual(&o) {
		t.Error("value equality must ignore loc and seq")
	}
}

func TestReprValueEqualReflexiveProperty(t *testing.T) {
	prop := func(class, str string, hash uint64, loc int64, seq int) bool {
		r := Repr{Loc: Loc(loc), Class: class, Hash: hash, Str: str, Seq: seq}
		o := r
		o.Loc, o.Seq = Loc(loc+1), seq+1
		return r.ValueEqual(&r) && r.ValueEqual(&o)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundTripIO(t *testing.T) {
	tr := New("rt")
	tr.Append(1, "main", Repr{}, Event{Kind: KindInit, Member: "C",
		Target: Repr{Loc: 1, Class: "C", Seq: 1}, Args: []Repr{intRepr(32), intRepr(127)}})
	tr.Append(1, "main", Repr{Loc: 1, Class: "C"}, Event{Kind: KindSet,
		Target: Repr{Loc: 1, Class: "C"}, Member: "min", Args: []Repr{intRepr(32)}})
	tr.Append(2, "worker", Repr{}, Event{Kind: KindFork, Member: "2",
		Stack: []Frame{{Method: "main", Callee: Repr{Class: "Main"}}}})

	var buf bytes.Buffer
	if err := tr.WriteRSEG(&buf); err != nil {
		t.Fatalf("WriteRSEG: %v", err)
	}
	got, err := ReadAny("rt", &buf)
	if err != nil {
		t.Fatalf("ReadAny: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	tr := New("f")
	tr.Append(1, "m", Repr{}, Event{Kind: KindCall, Member: "x"})
	path := dir + "/t.trace"
	if err := tr.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Len() != 1 || got.Name != "f" {
		t.Errorf("loaded %q len %d", got.Name, got.Len())
	}
}

func TestThreadIDs(t *testing.T) {
	tr := New("t")
	tr.Append(3, "m", Repr{}, Event{Kind: KindCall, Member: "x"})
	tr.Append(1, "m", Repr{}, Event{Kind: KindCall, Member: "x"})
	tr.Append(3, "m", Repr{}, Event{Kind: KindCall, Member: "x"})
	tr.Entries = append(tr.Entries, Entry{EID: 3, TID: -1, Event: Event{Kind: KindEOF}})
	got := tr.ThreadIDs()
	want := []ThreadID{3, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ThreadIDs = %v, want %v", got, want)
	}
}

func TestComputeStats(t *testing.T) {
	tr := New("s")
	c := Repr{Loc: 1, Class: "C", Seq: 1}
	tr.Append(1, "main", Repr{}, Event{Kind: KindInit, Member: "C", Target: c})
	tr.Append(1, "main", Repr{}, Event{Kind: KindCall, Target: c, Member: "run"})
	tr.Append(1, "run", c, Event{Kind: KindGet, Target: c, Member: "f", Args: []Repr{intRepr(1)}})
	tr.Append(1, "run", c, Event{Kind: KindSet, Target: c, Member: "f", Args: []Repr{intRepr(2)}})
	tr.Append(1, "main", Repr{}, Event{Kind: KindReturn, Target: c, Member: "run"})
	s := ComputeStats(tr)
	if s.Entries != 5 {
		t.Errorf("entries = %d", s.Entries)
	}
	if s.Threads != 1 {
		t.Errorf("threads = %d", s.Threads)
	}
	if s.Objects != 1 {
		t.Errorf("objects = %d", s.Objects)
	}
	if s.ByKind[KindGet] != 1 || s.ByKind[KindSet] != 1 {
		t.Errorf("kind counts: %v", s.ByKind)
	}
}

func TestEntryStringForms(t *testing.T) {
	c := Repr{Loc: 1, Class: "C", Seq: 1}
	cases := []Entry{
		{Event: Event{Kind: KindEOF}},
		{Event: Event{Kind: KindGet, Target: c, Member: "f", Args: []Repr{intRepr(1)}}},
		{Event: Event{Kind: KindSet, Target: c, Member: "f", Args: []Repr{intRepr(1)}}},
		{Event: Event{Kind: KindCall, Target: c, Member: "m"}},
		{Event: Event{Kind: KindReturn, Target: c, Member: "m"}},
		{Event: Event{Kind: KindInit, Target: c, Member: "C"}},
		{Event: Event{Kind: KindFork, Member: "2"}},
		{Event: Event{Kind: KindEnd}},
	}
	for _, e := range cases {
		if e.String() == "" {
			t.Errorf("empty String() for kind %v", e.Event.Kind)
		}
	}
	if FormatEntries(cases) == "" {
		t.Error("FormatEntries empty")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := New("jl")
	tr.Append(1, "Main.main/0", Repr{Loc: 1, Class: "Main", Seq: 1}, Event{
		Kind: KindInit, Member: "C",
		Target: Repr{Loc: 2, Class: "C", Seq: 1, Hash: 9, Str: "C:[]"},
		Args:   []Repr{intRepr(32), intRepr(127)},
	})
	tr.Append(1, "Main.main/0", Repr{}, Event{Kind: KindFork, Member: "2",
		Stack: []Frame{{Method: "Main.main/0", Callee: Repr{Class: "Main"}}}})
	tr.Append(2, "w", Repr{}, Event{Kind: KindEnd})

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL("jl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip %d entries, want %d", got.Len(), tr.Len())
	}
	for i := range tr.Entries {
		if !reflect.DeepEqual(tr.Entries[i], got.Entries[i]) {
			t.Errorf("entry %d mismatch:\n got %+v\nwant %+v", i, got.Entries[i], tr.Entries[i])
		}
	}
}

func TestJSONLRejectsBadKind(t *testing.T) {
	in := `{"eid":0,"tid":1,"kind":"frobnicate"}` + "\n"
	if _, err := ReadJSONL("x", bytes.NewReader([]byte(in))); err == nil {
		t.Error("unknown kind must be rejected")
	}
}
