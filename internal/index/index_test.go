package index

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/subjects"
	"repro/internal/trace"
)

func put(sketches map[trace.Digest]*Sketch, family, variant, n int) trace.Digest {
	tr := genTrace(family, variant, n)
	id := tr.ComputeDigest()
	sketches[id] = SketchTrace(tr)
	return id
}

// naiveClusters is the reference partition: connected components over
// every pair of traces that share any band key and whose estimated
// Jaccard reaches the threshold, presented in Clusters' order.
func naiveClusters(sketches map[trace.Digest]*Sketch, threshold float64) [][]trace.Digest {
	ids := make([]trace.Digest, 0, len(sketches))
	for id := range sketches {
		ids = append(ids, id)
	}
	adj := make([][]int, len(ids))
	for i := range ids {
		ki := sketches[ids[i]].BandKeys()
		for j := i + 1; j < len(ids); j++ {
			kj := sketches[ids[j]].BandKeys()
			shared := false
			for b := range ki {
				shared = shared || ki[b] == kj[b]
			}
			if shared && EstimatedJaccard(sketches[ids[i]], sketches[ids[j]]) >= threshold {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	seen := make([]bool, len(ids))
	var out [][]trace.Digest
	for i := range ids {
		if seen[i] {
			continue
		}
		var comp []trace.Digest
		stack := []int{i}
		seen[i] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, ids[x])
			for _, y := range adj[x] {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		slices.SortFunc(comp, func(a, b trace.Digest) int { return strings.Compare(a.String(), b.String()) })
		out = append(out, comp)
	}
	slices.SortFunc(out, func(a, b []trace.Digest) int {
		if len(a) != len(b) {
			return len(b) - len(a)
		}
		return strings.Compare(a[0].String(), b[0].String())
	})
	return out
}

func TestClustersMatchNaiveReference(t *testing.T) {
	sketches := make(map[trace.Digest]*Sketch)
	for i := 0; i < 200; i++ {
		tr := subjects.GenCorpusTrace(1+i%10, i, 300)
		sketches[tr.ComputeDigest()] = SketchTrace(tr)
	}
	for _, threshold := range []float64{0.3, 0.5, 0.8, 1.0} {
		t.Run(fmt.Sprint(threshold), func(t *testing.T) {
			got, want := Clusters(sketches, threshold), naiveClusters(sketches, threshold)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Clusters gives %d clusters, the reference %d", len(got), len(want))
			}
		})
	}
}

func TestClustersPartitionByFamily(t *testing.T) {
	sketches := make(map[trace.Digest]*Sketch)
	byFamily := map[int]map[trace.Digest]bool{}
	for fam := 1; fam <= 3; fam++ {
		byFamily[fam] = map[trace.Digest]bool{}
		for v := 0; v < 4; v++ {
			byFamily[fam][put(sketches, fam, v, 120)] = true
		}
	}
	clusters := Clusters(sketches, 0.5)
	if len(clusters) != 3 {
		t.Fatalf("got %d clusters, want 3 (one per family): %v", len(clusters), clusters)
	}
	for _, c := range clusters {
		if len(c) != 4 {
			t.Fatalf("cluster size %d, want 4", len(c))
		}
		fam := -1
		for f, members := range byFamily {
			if members[c[0]] {
				fam = f
			}
		}
		for _, id := range c {
			if !byFamily[fam][id] {
				t.Fatalf("cluster mixes families: %v", c)
			}
		}
	}
}

func TestClustersDeterministic(t *testing.T) {
	build := func() [][]trace.Digest {
		sketches := make(map[trace.Digest]*Sketch)
		// Insert in different orders across calls: the partition and its
		// presentation order must not care.
		for v := 3; v >= 0; v-- {
			put(sketches, 1, v, 100)
			put(sketches, 2, v, 100)
		}
		return Clusters(sketches, 0.5)
	}
	if !reflect.DeepEqual(build(), build()) {
		t.Error("Clusters output is not deterministic")
	}
}
