package trace

import (
	"bytes"
	"path/filepath"
	"testing"
)

// digestFixture builds a small trace exercising every canonical field:
// methods, reprs with and without locations, args, and fork stacks.
func digestFixture(name string) *Trace {
	t := New(name)
	obj := Repr{Loc: 7, Class: "Widget", Hash: 0xbeef, Str: "w1", Seq: 1}
	val := Repr{Class: "Int", Hash: 42, Str: "42"}
	t.Append(1, "Main.main/0", Repr{}, Event{Kind: KindInit, Target: obj, Member: "Widget", Args: []Repr{val}})
	t.Append(1, "Main.main/0", obj, Event{Kind: KindCall, Target: obj, Member: "Widget.spin/1", Args: []Repr{val, val}})
	t.Append(1, "Widget.spin/1", obj, Event{Kind: KindSet, Target: obj, Member: "rpm", Args: []Repr{val}})
	t.Append(1, "Main.main/0", Repr{}, Event{Kind: KindFork, Member: "2",
		Stack: []Frame{{Method: "Main.main/0", Caller: Repr{}, Callee: obj}}})
	t.Append(2, "Widget.run/0", obj, Event{Kind: KindReturn, Target: obj, Member: "Widget.run/0"})
	return t
}

func TestDigestStableAcrossNamesAndSyms(t *testing.T) {
	a := digestFixture("left")
	b := digestFixture("right-different-name")
	// b additionally loses its Sym fields, simulating a trace decoded in
	// another process before re-interning.
	for i := range b.Entries {
		e := &b.Entries[i]
		e.MethodSym, e.Event.MemberSym = NoSym, NoSym
		e.Self.ClassSym, e.Self.StrSym = NoSym, NoSym
		e.Event.Target.ClassSym, e.Event.Target.StrSym = NoSym, NoSym
		for j := range e.Event.Args {
			e.Event.Args[j].ClassSym, e.Event.Args[j].StrSym = NoSym, NoSym
		}
		for j := range e.Event.Stack {
			f := &e.Event.Stack[j]
			f.MethodSym = NoSym
			f.Caller.ClassSym, f.Caller.StrSym = NoSym, NoSym
			f.Callee.ClassSym, f.Callee.StrSym = NoSym, NoSym
		}
	}
	da, db := a.ComputeDigest(), b.ComputeDigest()
	if da != db {
		t.Errorf("digest differs across name/Sym variation: %s vs %s", da, db)
	}
	if da.IsZero() {
		t.Error("digest of a non-empty trace is zero")
	}
}

func TestDigestSensitiveToContent(t *testing.T) {
	a := digestFixture("x")
	b := digestFixture("x")
	b.Entries[2].Event.Args[0].Hash++ // one value changed
	if a.ComputeDigest() == b.ComputeDigest() {
		t.Error("digest ignores a changed argument value")
	}
	c := digestFixture("x")
	c.Entries = c.Entries[:len(c.Entries)-1]
	if a.ComputeDigest() == c.ComputeDigest() {
		t.Error("digest ignores a dropped entry")
	}
}

func TestDigestSurvivesSaveLoad(t *testing.T) {
	a := digestFixture("roundtrip")
	path := filepath.Join(t.TempDir(), "a.trace")
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if da, db := a.ComputeDigest(), b.ComputeDigest(); da != db {
		t.Errorf("digest changed across save/load: %s vs %s", da, db)
	}
}

func TestCanonicalBytesMatchDigest(t *testing.T) {
	a := digestFixture("bytes")
	raw, err := a.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("canonical encoding is empty")
	}
	var again bytes.Buffer
	if err := a.WriteCanonical(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again.Bytes()) {
		t.Error("canonical encoding is not deterministic")
	}
}

func TestParseDigestRoundTrip(t *testing.T) {
	d := digestFixture("parse").ComputeDigest()
	got, err := ParseDigest(d.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Errorf("ParseDigest(%s) = %s", d, got)
	}
	if _, err := ParseDigest("zz"); err == nil {
		t.Error("ParseDigest accepted junk")
	}
	if _, err := ParseDigest("abcd"); err == nil {
		t.Error("ParseDigest accepted a short digest")
	}
}
