// Package lcs provides longest-common-subsequence computation, in three
// variants that serve two paths:
//   - BitMatrix is the bit-parallel kernel the views-based differ runs on
//     every ω-window of SIMILAR-FROM-LINKED-VIEWS (§5.1): it trims, the
//     caller fills a match bit-matrix over what is left, and the kernel
//     computes 64 DP cells per word and reuses its scratch across windows;
//   - Compute is the classic O(n·m) dynamic program with common-prefix/
//     suffix trimming (the paper's "optimized version of the LCS
//     algorithm", §5.1), or Hirschberg's linear-space algorithm [9]
//     (roughly twice the comparisons). The whole-trace LCS baseline runs
//     it.
//
// Both paths count element comparisons, the paper's speedup metric, and
// BitMatrix counts exactly what Compute would for the same eq. Compute
// enforces an optional memory budget so the evaluation can reproduce the
// "LCS failed due to memory exhaustion" outcomes of Table 1.
package lcs

import (
	"context"
	"errors"
	"fmt"
)

// Eq compares element i of the left sequence with element j of the right.
type Eq func(i, j int) bool

// Pair is one matched index pair of the common subsequence.
type Pair struct{ I, J int }

// Stats records the cost of a computation.
type Stats struct {
	// Compares is the number of element comparison operations performed —
	// the unit of the paper's speedup histogram (Fig. 14b).
	Compares int64
	// Cells is the peak number of DP table cells held in memory; for
	// BitMatrix, which holds no table, the cells the DP would hold.
	Cells int64
}

// Algorithm selects the LCS implementation.
type Algorithm uint8

const (
	// DP is the standard dynamic program: O(n·m) time and space.
	DP Algorithm = iota
	// Hirschberg uses linear space at roughly double the comparisons.
	Hirschberg
)

// Options configures a computation.
type Options struct {
	Algorithm Algorithm
	// MemoryBudget caps the DP table size in cells (0 = unlimited). The
	// budget models RPRISM's experimental machine: exceeding it is the
	// "out of memory failure" of Table 1.
	MemoryBudget int64
	// Ctx, when non-nil, is polled between DP rows; a canceled context
	// aborts the computation with the context's error. Full-trace LCS
	// tables run for minutes on large inputs, so servers need a way to
	// kill them mid-flight.
	Ctx context.Context
}

// ErrMemoryBudget is returned when the DP table would exceed the budget.
var ErrMemoryBudget = errors.New("lcs: memory budget exceeded")

// Compute returns the matched pairs of a longest common subsequence of
// sequences of lengths n and m under eq, in ascending order.
func Compute(n, m int, eq Eq, opts Options) ([]Pair, Stats, error) {
	var st Stats
	counted := func(i, j int) bool {
		st.Compares++
		return eq(i, j)
	}

	// Common-prefix/suffix trimming.
	pre := 0
	for pre < n && pre < m && counted(pre, pre) {
		pre++
	}
	suf := 0
	for pre+suf < n && pre+suf < m && counted(n-1-suf, m-1-suf) {
		suf++
	}
	innerN, innerM := n-pre-suf, m-pre-suf

	var inner []Pair
	var err error
	if innerN > 0 && innerM > 0 {
		shifted := func(i, j int) bool { return counted(pre+i, pre+j) }
		switch opts.Algorithm {
		case Hirschberg:
			inner, err = hirschberg(opts.Ctx, innerN, innerM, shifted, &st, opts.MemoryBudget)
		default:
			inner, err = dp(opts.Ctx, innerN, innerM, shifted, &st, opts.MemoryBudget)
		}
		if err != nil {
			return nil, st, err
		}
	}

	out := make([]Pair, 0, pre+len(inner)+suf)
	for i := 0; i < pre; i++ {
		out = append(out, Pair{i, i})
	}
	for _, p := range inner {
		out = append(out, Pair{p.I + pre, p.J + pre})
	}
	for i := suf; i > 0; i-- {
		out = append(out, Pair{n - i, m - i})
	}
	return out, st, nil
}

// Length returns only the LCS length (linear space, no reconstruction).
func Length(n, m int, eq Eq) (int, Stats) {
	var st Stats
	counted := func(i, j int) bool {
		st.Compares++
		return eq(i, j)
	}
	row, _ := lcsRow(nil, n, m, counted, false)
	st.Cells = int64(m + 1)
	return int(row[m]), st
}

// ctxErr polls ctx (nil means uncancellable) — the shared cancellation
// check of the DP loops.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

func dp(ctx context.Context, n, m int, eq Eq, st *Stats, budget int64) ([]Pair, error) {
	cells := (int64(n) + 1) * (int64(m) + 1)
	if budget > 0 && cells > budget {
		return nil, fmt.Errorf("%w: need %d cells, budget %d", ErrMemoryBudget, cells, budget)
	}
	if cells > st.Cells {
		st.Cells = cells
	}
	width := m + 1
	tab := make([]int32, cells)
	at := func(i, j int) int32 { return tab[i*width+j] }
	for i := 1; i <= n; i++ {
		if i&15 == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		for j := 1; j <= m; j++ {
			if eq(i-1, j-1) {
				tab[i*width+j] = at(i-1, j-1) + 1
			} else if at(i-1, j) >= at(i, j-1) {
				tab[i*width+j] = at(i-1, j)
			} else {
				tab[i*width+j] = at(i, j-1)
			}
		}
	}
	// Backtrack.
	var rev []Pair
	for i, j := n, m; i > 0 && j > 0; {
		switch {
		case eq(i-1, j-1):
			rev = append(rev, Pair{i - 1, j - 1})
			i--
			j--
		case at(i-1, j) >= at(i, j-1):
			i--
		default:
			j--
		}
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev, nil
}

// lcsRow computes the final DP row in O(m) space. If rev is true the
// sequences are traversed in reverse (for Hirschberg's split step).
func lcsRow(ctx context.Context, n, m int, eq Eq, rev bool) ([]int32, error) {
	prev := make([]int32, m+1)
	cur := make([]int32, m+1)
	for i := 1; i <= n; i++ {
		if i&15 == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		cur[0] = 0
		for j := 1; j <= m; j++ {
			var same bool
			if rev {
				same = eq(n-i, m-j)
			} else {
				same = eq(i-1, j-1)
			}
			if same {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev, nil
}

// hirschberg reconstructs an LCS in linear space.
func hirschberg(ctx context.Context, n, m int, eq Eq, st *Stats, budget int64) ([]Pair, error) {
	if rows := int64(m+1) * 2; rows > st.Cells {
		st.Cells = rows
	}
	switch {
	case n == 0 || m == 0:
		return nil, nil
	case n == 1:
		for j := 0; j < m; j++ {
			if eq(0, j) {
				return []Pair{{0, j}}, nil
			}
		}
		return nil, nil
	}
	mid := n / 2
	upper, err := lcsRow(ctx, mid, m, eq, false)
	if err != nil {
		return nil, err
	}
	lowerEq := func(i, j int) bool { return eq(mid+i, j) }
	lower, err := lcsRow(ctx, n-mid, m, lowerEq, true)
	if err != nil {
		return nil, err
	}
	// Find the split point k maximizing upper[k] + lower[m-k].
	best, bestK := int32(-1), 0
	for k := 0; k <= m; k++ {
		if v := upper[k] + lower[m-k]; v > best {
			best, bestK = v, k
		}
	}
	left, err := hirschberg(ctx, mid, bestK, eq, st, budget)
	if err != nil {
		return nil, err
	}
	rightEq := func(i, j int) bool { return eq(mid+i, bestK+j) }
	right, err := hirschberg(ctx, n-mid, m-bestK, rightEq, st, budget)
	if err != nil {
		return nil, err
	}
	out := left
	for _, p := range right {
		out = append(out, Pair{p.I + mid, p.J + bestK})
	}
	return out, nil
}
