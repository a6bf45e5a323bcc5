package lcs

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func strEq(a, b []string) Eq {
	return func(i, j int) bool { return a[i] == b[j] }
}

func split(s string) []string {
	out := make([]string, len(s))
	for i, r := range []byte(s) {
		out[i] = string(r)
	}
	return out
}

func lcsString(a, b string, alg Algorithm) string {
	as, bs := split(a), split(b)
	pairs, _, err := Compute(len(as), len(bs), strEq(as, bs), Options{Algorithm: alg})
	if err != nil {
		panic(err)
	}
	var out []byte
	for _, p := range pairs {
		out = append(out, a[p.I])
	}
	return string(out)
}

func TestKnownLCS(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"", "", ""},
		{"abc", "", ""},
		{"", "abc", ""},
		{"abc", "abc", "abc"},
		{"abcdef", "abdf", "abdf"},
		{"XMJYAUZ", "MZJAWXU", "MJAU"},
		{"AGGTAB", "GXTXAYB", "GTAB"},
		{"aaaa", "aa", "aa"},
		{"abcXYdef", "abcdef", "abcdef"},
	}
	for _, c := range cases {
		for _, alg := range []Algorithm{DP, Hirschberg} {
			got := lcsString(c.a, c.b, alg)
			if len(got) != len(c.want) {
				t.Errorf("alg %d: lcs(%q, %q) = %q (len %d), want length %d",
					alg, c.a, c.b, got, len(got), len(c.want))
			}
		}
	}
}

// Fig. 10's example: moved subsequences are not detected by LCS.
func TestMovedSubsequenceNotDetected(t *testing.T) {
	a := split("XYabcd")
	b := split("abcdXY")
	pairs, _, err := Compute(len(a), len(b), strEq(a, b), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 4 { // only "abcd" (or "XY..." variants ≤ 4)
		t.Errorf("lcs length = %d, want 4 (moved XY cannot also match)", len(pairs))
	}
}

func randomSeq(r *rand.Rand, n, alphabet int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a' + r.Intn(alphabet)))
	}
	return out
}

func TestPropertyPairsValid(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomSeq(r, r.Intn(30), 4)
		b := randomSeq(r, r.Intn(30), 4)
		pairs, _, err := Compute(len(a), len(b), strEq(a, b), Options{})
		if err != nil {
			return false
		}
		// Pairs strictly increasing in both coordinates, all matches real.
		for k, p := range pairs {
			if a[p.I] != b[p.J] {
				return false
			}
			if k > 0 && (p.I <= pairs[k-1].I || p.J <= pairs[k-1].J) {
				return false
			}
		}
		// Length bounded by min.
		if len(pairs) > len(a) || len(pairs) > len(b) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertySelfLCS(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomSeq(r, r.Intn(50), 3)
		pairs, _, err := Compute(len(a), len(a), strEq(a, a), Options{})
		return err == nil && len(pairs) == len(a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDPandHirschbergAgreeOnLength(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomSeq(r, r.Intn(40), 3)
		b := randomSeq(r, r.Intn(40), 3)
		d, _, err1 := Compute(len(a), len(b), strEq(a, b), Options{Algorithm: DP})
		h, _, err2 := Compute(len(a), len(b), strEq(a, b), Options{Algorithm: Hirschberg})
		l, _ := Length(len(a), len(b), strEq(a, b))
		return err1 == nil && err2 == nil && len(d) == len(h) && len(d) == l
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertySymmetricLength(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomSeq(r, r.Intn(30), 3)
		b := randomSeq(r, r.Intn(30), 3)
		ab, _ := Length(len(a), len(b), strEq(a, b))
		ba, _ := Length(len(b), len(a), strEq(b, a))
		return ab == ba
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMemoryBudget(t *testing.T) {
	a := randomSeq(rand.New(rand.NewSource(1)), 200, 2)
	b := randomSeq(rand.New(rand.NewSource(2)), 200, 2)
	_, _, err := Compute(len(a), len(b), strEq(a, b), Options{MemoryBudget: 100})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Errorf("err = %v, want ErrMemoryBudget", err)
	}
	// Identical sequences are fully handled by prefix trimming: no table
	// is allocated, so even a tiny budget succeeds.
	pairs, _, err := Compute(len(a), len(a), strEq(a, a), Options{MemoryBudget: 100})
	if err != nil || len(pairs) != len(a) {
		t.Errorf("trimmed case: pairs=%d err=%v", len(pairs), err)
	}
}

func TestHirschbergUsesLinearSpace(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randomSeq(r, 300, 3)
	b := randomSeq(r, 300, 3)
	_, stDP, err := Compute(len(a), len(b), strEq(a, b), Options{Algorithm: DP})
	if err != nil {
		t.Fatal(err)
	}
	_, stH, err := Compute(len(a), len(b), strEq(a, b), Options{Algorithm: Hirschberg})
	if err != nil {
		t.Fatal(err)
	}
	if stH.Cells >= stDP.Cells/10 {
		t.Errorf("Hirschberg cells = %d, DP cells = %d: not linear space", stH.Cells, stDP.Cells)
	}
	// Hirschberg trades space for compares (roughly 2x).
	if stH.Compares < stDP.Compares {
		t.Errorf("Hirschberg compares = %d < DP compares = %d", stH.Compares, stDP.Compares)
	}
}

func TestCompareCounting(t *testing.T) {
	a := split("abcd")
	b := split("abcd")
	_, st, err := Compute(len(a), len(b), strEq(a, b), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Identical strings: all handled by prefix scan = 4 compares (+0 suffix).
	if st.Compares != 4 {
		t.Errorf("compares = %d, want 4 for identical inputs", st.Compares)
	}
	c := split("xbcd")
	_, st2, err := Compute(len(a), len(c), strEq(a, c), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Compares <= 4 {
		t.Errorf("compares = %d, expected table work", st2.Compares)
	}
}

func TestPrefixSuffixTrimmingReducesWork(t *testing.T) {
	// Long common prefix/suffix with a small differing middle.
	mk := func(mid string) []string {
		var out []string
		for i := 0; i < 500; i++ {
			out = append(out, "p")
		}
		out = append(out, split(mid)...)
		for i := 0; i < 500; i++ {
			out = append(out, "s")
		}
		return out
	}
	a, b := mk("abc"), mk("axc")
	_, st, err := Compute(len(a), len(b), strEq(a, b), Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := int64(len(a)) * int64(len(b))
	if st.Compares > full/100 {
		t.Errorf("compares = %d, trimming should cut below %d", st.Compares, full/100)
	}
}
