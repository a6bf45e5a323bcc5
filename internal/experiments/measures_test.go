package experiments

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAccuracy(t *testing.T) {
	cases := []struct {
		total, rprism, lcs int
		want               float64
	}{
		{100, 10, 10, 1.0}, // same diffs: 100%
		{100, 5, 10, 95.0 / 90.0},
		{100, 20, 10, 80.0 / 90.0},
		{0, 0, 0, 1.0},
		{100, 0, 100, 1.0}, // degenerate: LCS matched nothing
	}
	for _, c := range cases {
		if got := Accuracy(c.total, c.rprism, c.lcs); got != c.want {
			t.Errorf("Accuracy(%d,%d,%d) = %v, want %v", c.total, c.rprism, c.lcs, got, c.want)
		}
	}
}

func TestAccuracyAboveOneWhenFewerDiffs(t *testing.T) {
	prop := func(total, lcs int) bool {
		total = 10 + abs(total)%1000
		lcs = abs(lcs) % (total - 1)
		rprism := lcs / 2 // fewer diffs
		return Accuracy(total, rprism, lcs) >= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(100, 10); got != 10 {
		t.Errorf("Speedup = %v", got)
	}
	if got := Speedup(100, 0); got != 0 {
		t.Errorf("Speedup by zero = %v", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := AccuracyBuckets()
	h.Add(0.5)  // -> 99% bucket
	h.Add(1.0)  // -> 100%
	h.Add(1.0)  // -> 100%
	h.Add(1.07) // -> 110%
	h.Add(3.0)  // -> 200% (clamped)
	if h.Total() != 5 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 || h.Counts[3] != 1 || h.Counts[6] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
}

func TestSpeedupHistogram(t *testing.T) {
	h := SpeedupBuckets()
	h.Add(0.3)
	h.Add(7)
	h.Add(9999)
	if h.Counts[0] != 1 || h.Counts[3] != 1 || h.Counts[9] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
}

func TestRender(t *testing.T) {
	h := SpeedupBuckets()
	h.Add(7)
	out := h.Render("Speedup (RPrism vs LCS)")
	if !strings.Contains(out, "10x | # (1)") {
		t.Errorf("render:\n%s", out)
	}
	if !strings.Contains(out, "Speedup") {
		t.Errorf("missing title:\n%s", out)
	}
}
