package experiments

import (
	"fmt"
	"strings"
)

// The evaluation measures of §5.1: accuracy (relative number of
// semantic correlations found by the views-based differencing vs the
// LCS baseline), speedup (ratio of trace-entry compare operations), and
// the histogram bucketing of Fig. 14.

// Accuracy is the §5.1 formula:
//
//	((total − rprismDiffs) / total) / ((total − lcsDiffs) / total)
//
// A value above 1 means the views-based differencing identified more
// semantic correlations (fewer differences) than LCS, e.g. by detecting
// moved entries LCS inherently cannot match.
func Accuracy(totalEntries, rprismDiffs, lcsDiffs int) float64 {
	if totalEntries == 0 {
		return 1
	}
	lcsCorr := float64(totalEntries - lcsDiffs)
	if lcsCorr <= 0 {
		return 1
	}
	return float64(totalEntries-rprismDiffs) / lcsCorr
}

// Speedup is the ratio of compare operations (or wall-clock times)
// LCS / views.
func Speedup(lcsCost, viewsCost float64) float64 {
	if viewsCost <= 0 {
		return 0
	}
	return lcsCost / viewsCost
}

// Histogram is a bucketed count with the fixed bucket labels of Fig. 14.
type Histogram struct {
	Labels []string
	Edges  []float64 // upper-inclusive bucket edges, ascending
	Counts []int
}

// AccuracyBuckets are the Fig. 14(a) x-axis values (fractions, printed as
// percentages): 99%, 100%, 105%, 110%, 125%, 150%, 200%.
func AccuracyBuckets() Histogram {
	return Histogram{
		Labels: []string{"99%", "100%", "105%", "110%", "125%", "150%", "200%"},
		Edges:  []float64{0.99, 1.00, 1.05, 1.10, 1.25, 1.50, 2.00},
	}
}

// SpeedupBuckets are the Fig. 14(b) x-axis values: 0.5x through 5000x.
func SpeedupBuckets() Histogram {
	return Histogram{
		Labels: []string{"0.5x", "1x", "5x", "10x", "50x", "100x", "500x", "1000x", "2500x", "5000x"},
		Edges:  []float64{0.5, 1, 5, 10, 50, 100, 500, 1000, 2500, 5000},
	}
}

// Add places v into the first bucket whose edge is >= v (the last bucket
// absorbs anything larger).
func (h *Histogram) Add(v float64) {
	if h.Counts == nil {
		h.Counts = make([]int, len(h.Edges))
	}
	for i, e := range h.Edges {
		if v <= e || i == len(h.Edges)-1 {
			h.Counts[i]++
			return
		}
	}
}

// Render draws the histogram as rows of '#' marks — the textual analogue
// of the Fig. 14 bar charts.
func (h *Histogram) Render(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	width := 0
	for _, l := range h.Labels {
		if len(l) > width {
			width = len(l)
		}
	}
	for i, l := range h.Labels {
		n := 0
		if i < len(h.Counts) {
			n = h.Counts[i]
		}
		fmt.Fprintf(&b, "  %*s | %s (%d)\n", width, l, strings.Repeat("#", n), n)
	}
	return b.String()
}

// Total returns the number of samples added.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}
