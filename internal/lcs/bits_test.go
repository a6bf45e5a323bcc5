package lcs

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// decodeMatrix turns fuzz bytes into an n×m equality matrix, n, m ≤ 130.
// Byte 0 and 1 give n and m. Byte 2 picks the mode: with its top bit set
// the rest of the bytes are the matrix's bits, row-major and cycled;
// otherwise they are symbols of an alphabet of (byte 2 & 0x7f) + 1 letters,
// left side first, and cell (i, j) is a[i] == b[j]. Missing bytes read 0.
func decodeMatrix(data []byte) (n, m int, eq [][]bool) {
	at := func(k int) byte {
		if k < len(data) {
			return data[k]
		}
		return 0
	}
	n, m = int(at(0))%131, int(at(1))%131
	mode := at(2)
	rest := data[min(3, len(data)):]
	cyc := func(k int) byte {
		if len(rest) == 0 {
			return 0
		}
		return rest[k%len(rest)]
	}
	eq = make([][]bool, n)
	for i := range eq {
		eq[i] = make([]bool, m)
		for j := range eq[i] {
			if mode&0x80 != 0 {
				bit := i*m + j
				eq[i][j] = cyc(bit>>3)>>(bit&7)&1 != 0
			} else {
				alpha := int(mode&0x7f) + 1
				eq[i][j] = int(cyc(i))%alpha == int(cyc(n+j))%alpha
			}
		}
	}
	return n, m, eq
}

// symbols builds a symbol-mode input from two byte strings.
func symbols(alpha byte, a, b []byte) []byte {
	out := []byte{byte(len(a)), byte(len(b)), alpha - 1}
	return append(append(out, a...), b...)
}

// checkBitLCS runs the kernel on eq through x and requires the pairs and
// counts lcs.Compute returns for the same matrix.
func checkBitLCS(t *testing.T, x *BitMatrix, n, m int, eq [][]bool) {
	t.Helper()
	want, wantSt, err := Compute(n, m, func(i, j int) bool { return eq[i][j] }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pre, innerN, innerM := x.Reset(n, m, func(i, j int) bool { return eq[i][j] })
	for i := 0; i < innerN; i++ {
		row := x.Row(i)
		for j := 0; j < innerM; j++ {
			if eq[pre+i][pre+j] {
				row[j>>6] |= 1 << (j & 63)
			}
		}
	}
	got, gotSt, err := x.LCS(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%d×%d: pairs\n got %v\nwant %v", n, m, got, want)
	}
	if gotSt != wantSt {
		t.Fatalf("%d×%d: stats got %+v, want %+v", n, m, gotSt, wantSt)
	}
}

func transpose(eq [][]bool, m int) [][]bool {
	out := make([][]bool, m)
	for j := range out {
		out[j] = make([]bool, len(eq))
		for i := range eq {
			out[j][i] = eq[i][j]
		}
	}
	return out
}

func bitLCSSeeds() [][]byte {
	r := rand.New(rand.NewSource(7))
	randBytes := func(k int) []byte {
		b := make([]byte, k)
		r.Read(b)
		return b
	}
	seeds := [][]byte{
		{0, 0, 0},
		{0, 40, 3},
		{40, 0, 3},
		{130, 130, 0},          // all equal: alphabet of one
		{130, 130, 0x80},       // all distinct: no bit set
		{130, 130, 0x80, 0xff}, // all equal: every bit set
	}
	for _, m := range []byte{63, 64, 65, 128} {
		seeds = append(seeds,
			append([]byte{m, m, 3}, randBytes(2*int(m))...),
			append([]byte{100, m, 0x80}, randBytes(100*int(m)/8+1)...))
	}
	// A full trim: equal sides. Then a long prefix and suffix around a
	// differing middle, with the suffix crossing a word boundary.
	same := randBytes(120)
	seeds = append(seeds, symbols(4, same, same))
	a := append(append(slices.Clone(same[:70]), 'x', 'y', 'z'), same[70:]...)
	b := append(append(slices.Clone(same[:70]), 'q'), same[70:]...)
	seeds = append(seeds, symbols(128, a, b))
	return seeds
}

// FuzzBitLCS checks the bit-parallel kernel cell for cell against lcs.dp:
// identical pairs, length, compares and cells on random equality matrices
// of up to 130×130, which crosses the one-word and multi-word paths. Each
// input also runs transposed on the same BitMatrix first, so a kernel
// that reads stale scratch from a differently shaped call fails too.
func FuzzBitLCS(f *testing.F) {
	for _, s := range bitLCSSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, m, eq := decodeMatrix(data)
		var x BitMatrix
		checkBitLCS(t, &x, m, n, transpose(eq, m))
		checkBitLCS(t, &x, n, m, eq)
	})
}

// TestBitLCSMatchesDP runs FuzzBitLCS's check on random matrices of many
// shapes and densities, all through one BitMatrix.
func TestBitLCSMatchesDP(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var x BitMatrix
	for k := 0; k < 300; k++ {
		n, m := r.Intn(140), r.Intn(140)
		density := r.Float64()
		eq := make([][]bool, n)
		for i := range eq {
			eq[i] = make([]bool, m)
			for j := range eq[i] {
				eq[i][j] = r.Float64() < density
			}
		}
		checkBitLCS(t, &x, n, m, eq)
	}
	for _, s := range bitLCSSeeds() {
		n, m, eq := decodeMatrix(s)
		checkBitLCS(t, &x, n, m, eq)
	}
}

// TestBitLCSCanceled requires a canceled context to stop the recurrence
// at its first poll, as it stops dp.
func TestBitLCSCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var x BitMatrix
	never := func(i, j int) bool { return false }
	x.Reset(40, 40, never)
	_, _, err := x.LCS(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A window too small to reach a poll finishes.
	x.Reset(10, 10, never)
	if _, _, err := x.LCS(ctx); err != nil {
		t.Fatalf("10×10: err = %v", err)
	}
}

// TestBitLCSReusesScratch requires a warm BitMatrix to compute a window
// no larger than an earlier one without allocating.
func TestBitLCSReusesScratch(t *testing.T) {
	var x BitMatrix
	// Only the first element of each side equals the other's, so the
	// inner window is the whole matrix less one row and column.
	firsts := func(i, j int) bool { return i == 0 && j == 0 }
	fill := func(n, m int) {
		_, innerN, innerM := x.Reset(n, m, firsts)
		for i := 0; i < innerN; i++ {
			x.Row(i)[0] |= 1 << ((i * 7) % min(innerM, 64))
		}
	}
	fill(200, 200)
	if _, _, err := x.LCS(nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		fill(31, 31)
		x.LCS(nil)
		fill(150, 190)
		x.LCS(nil)
	})
	if allocs != 0 {
		t.Errorf("warm BitMatrix allocates %.0f times per run, want 0", allocs)
	}
}
