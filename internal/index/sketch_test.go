package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/diff"
	"repro/internal/trace"
	"repro/internal/views"
)

// genTrace builds a deterministic test trace: family selects the
// method/class vocabulary, variant perturbs ~10% of the argument
// values.
func genTrace(family, variant, n int) *trace.Trace {
	t := trace.New(fmt.Sprintf("fam%d-var%d", family, variant))
	for i := 0; i < n; i++ {
		class := fmt.Sprintf("Fam%dNode", family)
		method := fmt.Sprintf("Fam%d.op%d/1", family, (i+family)%5)
		obj := trace.Repr{Loc: trace.Loc(i%7 + 1), Class: class, Seq: i%7 + 1}
		v := family*100000 + i
		if (i*13+3)%10 == 0 {
			v += (variant + 1) * 1000
		}
		val := trace.Repr{Class: "Int", Hash: uint64(v), Str: fmt.Sprintf("%d", v)}
		t.Append(trace.ThreadID(i%2+1), method, obj,
			trace.Event{Kind: trace.KindCall, Target: obj, Member: method, Args: []trace.Repr{val}})
	}
	t.EnsureSyms()
	return t
}

func TestSketchStableAcrossJSONLRoundTrip(t *testing.T) {
	tr := genTrace(1, 0, 120)
	want := SketchTrace(tr)

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSONL(tr.Name, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := SketchTrace(back); !reflect.DeepEqual(got, want) {
		t.Error("sketch changed across JSONL round-trip")
	}
}

func TestSketchStableAcrossRSEGRoundTrip(t *testing.T) {
	tr := genTrace(2, 1, 120)
	want := SketchTrace(tr)

	var buf bytes.Buffer
	if err := tr.WriteRSEGOpts(&buf, trace.RSEGOptions{}); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadAny(tr.Name, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := SketchTrace(back); !reflect.DeepEqual(got, want) {
		t.Error("sketch changed across RSEG round-trip")
	}
}

// TestSketchIgnoresSymRemapping is the stability property the sidecar
// persistence rests on: the sketch is a function of the canonical
// strings only, so scrambling every interned Sym id — as a different
// process's symbol table numbering would — must not change it.
func TestSketchIgnoresSymRemapping(t *testing.T) {
	tr := genTrace(3, 2, 100)
	want := SketchTrace(tr)

	scrambled := &trace.Trace{Name: tr.Name, Entries: make([]trace.Entry, len(tr.Entries))}
	copy(scrambled.Entries, tr.Entries)
	for i := range scrambled.Entries {
		e := &scrambled.Entries[i]
		e.MethodSym = trace.Sym(i + 5000)
		e.Self.ClassSym = trace.Sym(i + 6000)
		e.Self.StrSym = trace.Sym(i + 7000)
		e.Event.MemberSym = trace.Sym(i + 8000)
		e.Event.Target.ClassSym = trace.Sym(i + 9000)
		args := make([]trace.Repr, len(e.Event.Args))
		copy(args, e.Event.Args)
		for j := range args {
			args[j].ClassSym = trace.Sym(i*10 + j + 10000)
			args[j].StrSym = trace.Sym(i*10 + j + 20000)
		}
		e.Event.Args = args
	}
	if got := SketchTrace(scrambled); !reflect.DeepEqual(got, want) {
		t.Error("sketch depends on interned Sym ids; must derive from canonical strings only")
	}
}

// pinnedSketchTraces are the inputs whose sidecar bytes
// TestSketchBytesPinned pins: generated families, an EOF-padded trace,
// and the golden fixtures of every loadable trace format.
func pinnedSketchTraces(tb testing.TB) map[string]*trace.Trace {
	padded := genTrace(1, 0, 40)
	trace.PadEOF(padded, genTrace(1, 0, 44))
	cases := map[string]*trace.Trace{
		"fam1-var0": genTrace(1, 0, 120),
		"fam2-var1": genTrace(2, 1, 120),
		"fam3-var2": genTrace(3, 2, 100),
		"padded":    padded,
	}
	for _, name := range []string{"golden.v2.jsonl", "golden.rseg", "golden.rsegz"} {
		tr, err := trace.Load(filepath.Join("..", "trace", "testdata", name))
		if err != nil {
			tb.Fatal(err)
		}
		cases[name] = tr
	}
	return cases
}

// TestSketchBytesPinned pins the persisted form of the sketches of the
// golden format fixtures and of a few generated traces, one padded with
// EOF entries, to the SHA-256 of the sidecar bytes that the index's
// class hash produced before it moved to trace.EventClassHash: sidecars
// written by earlier releases stay valid only while these hold.
func TestSketchBytesPinned(t *testing.T) {
	const golden = "f525321a0d4cf70ea74728ef007846bf5251b5eb9e977d1116992b446e68c2fe"
	want := map[string]string{
		"fam1-var0":       "52b3f77ef6ab29f62c7c7702c4c4a1cf83e84f84e9ad6d833feb2f5c931e06df",
		"fam2-var1":       "fb1f124282610d312a60c7fe21ad2fb1a18377d818bd191d5b88fa0f0e8ab47e",
		"fam3-var2":       "5189f4c6294a99db2326aa6e79f0e1648a8d9765634d78e561fdcc7c7b877be2",
		"padded":          "9ec685df8dc68f4b25d7633a9655cba3e5857cc6244b0c1f6e792f82746bac91",
		"golden.v2.jsonl": golden,
		"golden.rseg":     golden,
		"golden.rsegz":    golden,
	}
	cases := pinnedSketchTraces(t)
	if len(cases) != len(want) {
		t.Fatalf("%d pinned inputs, want hashes for %d", len(cases), len(want))
	}
	for name, tr := range cases {
		raw, err := SketchTrace(tr).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != want[name] {
			t.Errorf("%s: sketch bytes hash to %x, want %s", name, sum, want[name])
		}
	}
}

// TestSketchOrderIndependent: the sketch is a multiset summary, so the
// segmentation order entries arrive in (or any permutation) is
// invisible to it.
func TestSketchOrderIndependent(t *testing.T) {
	tr := genTrace(4, 0, 150)
	want := SketchTrace(tr)

	perm := &trace.Trace{Name: tr.Name, Entries: make([]trace.Entry, len(tr.Entries))}
	copy(perm.Entries, tr.Entries)
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(perm.Entries), func(i, j int) {
		perm.Entries[i], perm.Entries[j] = perm.Entries[j], perm.Entries[i]
	})
	if got := SketchTrace(perm); !reflect.DeepEqual(got, want) {
		t.Error("sketch changed under entry permutation")
	}
}

func TestSketchCountsEOFAndThreads(t *testing.T) {
	tr := genTrace(1, 0, 40)
	other := genTrace(1, 0, 44)
	trace.PadEOF(tr, other) // pads tr with EOF entries up to other's length
	sk := SketchTrace(tr)
	if int(sk.Total) != tr.Len() {
		t.Errorf("Total = %d, want %d", sk.Total, tr.Len())
	}
	if sk.Entries >= sk.Total {
		t.Errorf("Entries = %d must exclude the EOF padding (total %d)", sk.Entries, sk.Total)
	}
	if sk.Threads != 2 {
		t.Errorf("Threads = %d, want 2", sk.Threads)
	}
}

// TestBoundsBracketExactDiff is the soundness property the pruned
// search rests on: for any pair, DiffLowerBound ≤ NumDiffs ≤
// DiffUpperBound under the exact views differencer.
func TestBoundsBracketExactDiff(t *testing.T) {
	cases := [][2]*trace.Trace{
		{genTrace(1, 0, 100), genTrace(1, 1, 100)}, // near: same family
		{genTrace(1, 0, 100), genTrace(2, 0, 100)}, // far: different family
		{genTrace(1, 0, 100), genTrace(1, 0, 100)}, // identical
		{genTrace(3, 1, 80), genTrace(3, 4, 120)},  // different lengths
	}
	for i, c := range cases {
		a, b := c[0], c[1]
		ska, skb := SketchTrace(a), SketchTrace(b)
		res := diff.ViewDiffWebs(views.Build(a), views.Build(b), diff.ViewOptions{})
		lb, ub := DiffLowerBound(ska, skb), DiffUpperBound(ska, skb)
		if lb > res.NumDiffs() || res.NumDiffs() > ub {
			t.Errorf("case %d: bounds [%d, %d] do not bracket exact %d", i, lb, ub, res.NumDiffs())
		}
	}
}

func TestEstimatedJaccard(t *testing.T) {
	a := SketchTrace(genTrace(1, 0, 100))
	if j := EstimatedJaccard(a, a); j != 1.0 {
		t.Errorf("self-Jaccard = %v, want 1.0", j)
	}
	near := SketchTrace(genTrace(1, 1, 100))
	far := SketchTrace(genTrace(9, 0, 100))
	if jn, jf := EstimatedJaccard(a, near), EstimatedJaccard(a, far); jn <= jf {
		t.Errorf("same-family Jaccard %v should exceed cross-family %v", jn, jf)
	}
}

func TestBandKeysAgreeOnEqualSketches(t *testing.T) {
	a := SketchTrace(genTrace(5, 0, 90))
	b := SketchTrace(genTrace(5, 0, 90))
	if a.BandKeys() != b.BandKeys() {
		t.Error("equal sketches produced different band keys")
	}
}

func TestSketchMarshalRoundTrip(t *testing.T) {
	want := SketchTrace(genTrace(6, 3, 130))
	raw, err := want.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSketch(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("sketch changed across Marshal/Unmarshal")
	}
}

func TestUnmarshalSketchRejectsGarbage(t *testing.T) {
	for _, raw := range []string{
		"not json",
		`{"version": 99, "minhash": "", "counts": ""}`,
		`{"version": 1, "minhash": "AAAA", "counts": "AAAA"}`,
	} {
		if _, err := UnmarshalSketch([]byte(raw)); err == nil {
			t.Errorf("UnmarshalSketch(%q) accepted garbage", raw)
		}
	}
}
