package lcs

import (
	"context"
	"math/bits"
	"slices"
)

// BitMatrix is the bit-parallel LCS kernel (Allison & Dix 1986; Hyyrö
// 2004, "Bit-parallel LCS-length computation revisited") together with
// its scratch. Reset trims the common prefix and suffix, the caller fills
// a match matrix over the inner window that is left, one row of ⌈m'/64⌉
// words per inner left element, and LCS computes 64 DP cells per machine
// word from it: no per-cell call and no table of int32.
//
// The zero value is ready to use. Every buffer is reused across calls, so
// a caller that keeps one BitMatrix allocates only when a window is larger
// than any before it. A BitMatrix is not safe for concurrent use.
type BitMatrix struct {
	n, m, pre, suf int
	innerN, innerM int
	words          int // per match and recurrence row: ⌈innerM/64⌉
	trims          int64
	match          []uint64 // innerN rows; bit j of row i: left pre+i equals right pre+j
	rows           []uint64 // the kept recurrence rows of the last LCS
	pairs          []Pair   // the pairs the last LCS returned
}

// Reset starts a computation over sequences of lengths n and m. It trims
// their common prefix and suffix under eq exactly as Compute does,
// counting each compare, and sizes a cleared match matrix for the inner
// window that is left. It returns pre, the offset of that window on both
// sides, and its sizes innerN and innerM.
func (x *BitMatrix) Reset(n, m int, eq Eq) (pre, innerN, innerM int) {
	x.n, x.m, x.trims = n, m, 0
	for pre < n && pre < m {
		x.trims++
		if !eq(pre, pre) {
			break
		}
		pre++
	}
	suf := 0
	for pre+suf < n && pre+suf < m {
		x.trims++
		if !eq(n-1-suf, m-1-suf) {
			break
		}
		suf++
	}
	x.pre, x.suf = pre, suf
	x.innerN, x.innerM = n-pre-suf, m-pre-suf
	x.words = (x.innerM + 63) >> 6
	x.match = grow(x.match, x.innerN*x.words)
	clear(x.match)
	return pre, x.innerN, x.innerM
}

// Row returns the match row of inner left element i for the caller to
// fill: set bit j&63 of word j>>6 when left element pre+i equals right
// element pre+j.
func (x *BitMatrix) Row(i int) []uint64 {
	return x.match[i*x.words : (i+1)*x.words]
}

// LCS returns the matched pairs of a longest common subsequence, in
// ascending order and in the coordinates Reset was given. The pairs and
// the counts are exactly those Compute returns for the same eq:
//   - Compares is Reset's trim compares, plus one per inner cell, plus one
//     per backtrack step;
//   - Cells is the (n'+1)(m'+1) table the DP would hold for a non-empty
//     inner window;
//   - the backtrack takes dp's path: a match moves diagonally, otherwise
//     up >= left moves i.
//
// The returned slice is scratch, valid until the next LCS. ctx (nil means
// uncancellable) is polled every 16 rows, as dp polls it.
func (x *BitMatrix) LCS(ctx context.Context) ([]Pair, Stats, error) {
	st := Stats{Compares: x.trims}
	pre, n, m, w := x.pre, x.innerN, x.innerM, x.words
	if n == 0 || m == 0 {
		x.pairs = grow(x.pairs, pre+x.suf)
		x.diagonals()
		return x.pairs, st, nil
	}
	st.Cells = (int64(n) + 1) * (int64(m) + 1)

	// Row i keeps V after i left elements: a zero bit j marks a column
	// where DP row i rises by one. Bits at and above m never carry down.
	x.rows = grow(x.rows, (n+1)*w)
	rows := x.rows
	for k := 0; k < w; k++ {
		rows[k] = ^uint64(0)
	}
	for i := 1; i <= n; i++ {
		if i&15 == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, st, err
			}
		}
		st.Compares += int64(m)
		match := x.match[(i-1)*w : i*w]
		prev, cur := rows[(i-1)*w:i*w], rows[i*w:(i+1)*w]
		var carry uint64
		for k, v := range prev {
			var sum uint64
			sum, carry = bits.Add64(v, v&match[k], carry)
			cur[k] = sum | v&^match[k]
		}
	}

	length := x.cell(n, m)
	x.pairs = grow(x.pairs, pre+length+x.suf)
	x.diagonals()
	out := x.pairs[pre : pre+length]
	for i, j := n, m; i > 0 && j > 0; {
		st.Compares++
		switch {
		case x.match[(i-1)*w+(j-1)>>6]>>((j-1)&63)&1 != 0:
			i--
			j--
			length--
			out[length] = Pair{pre + i, pre + j}
		case x.cell(i-1, j) >= x.cell(i, j-1):
			i--
		default:
			j--
		}
	}
	return x.pairs, st, nil
}

// cell reads DP cell (i, j), the LCS length of the first i inner left and
// j inner right elements, from the kept rows: the zeros among row i's
// first j bits.
func (x *BitMatrix) cell(i, j int) int {
	row := x.rows[i*x.words : (i+1)*x.words]
	ones := 0
	for _, v := range row[:j>>6] {
		ones += bits.OnesCount64(v)
	}
	if b := j & 63; b != 0 {
		ones += bits.OnesCount64(row[j>>6] & (1<<b - 1))
	}
	return j - ones
}

// diagonals writes the trimmed prefix and suffix pairs at both ends of
// x.pairs.
func (x *BitMatrix) diagonals() {
	for i := 0; i < x.pre; i++ {
		x.pairs[i] = Pair{i, i}
	}
	tail := x.pairs[len(x.pairs)-x.suf:]
	for k := range tail {
		tail[k] = Pair{x.n - x.suf + k, x.m - x.suf + k}
	}
}

// grow returns s resized to n, reallocating only when its capacity is
// short, and then with append's amortized growth. The contents are not
// cleared.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}
