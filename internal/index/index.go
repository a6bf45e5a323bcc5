package index

import (
	"bytes"
	"cmp"
	"slices"

	"repro/internal/trace"
)

// Clusters partitions the sketched traces: traces sharing the key of
// any LSH band are candidate pairs, estimated Jaccard ≥ threshold
// confirms them, and the confirmed pairs are closed under union-find.
// Traces similar to nothing form singleton clusters. The result is
// deterministic: clusters ordered by size (desc) then smallest member,
// members ascending.
//
// Bands are formed on each call: per band, the (key, position) pairs
// are sorted by key and each run of equal keys is one bucket.
func Clusters(sketches map[trace.Digest]*Sketch, threshold float64) [][]trace.Digest {
	ids := make([]trace.Digest, 0, len(sketches))
	for id := range sketches {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, compareDigests)
	sks := make([]*Sketch, len(ids))
	keys := make([][Bands]uint64, len(ids))
	for i, id := range ids {
		sks[i] = sketches[id]
		keys[i] = sks[i].BandKeys()
	}
	parent := make([]int, len(ids))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	type slot struct {
		key uint64
		pos int
	}
	band := make([]slot, len(ids))
	for b := 0; b < Bands; b++ {
		for i := range band {
			band[i] = slot{keys[i][b], i}
		}
		// The partition does not depend on the order pairs are visited
		// in, so positions need no tie-break.
		slices.SortFunc(band, func(x, y slot) int { return cmp.Compare(x.key, y.key) })
		for lo := 0; lo < len(band); {
			hi := lo + 1
			for hi < len(band) && band[hi].key == band[lo].key {
				hi++
			}
			for i := lo; i < hi; i++ {
				for j := i + 1; j < hi; j++ {
					pi, pj := band[i].pos, band[j].pos
					ri, rj := find(pi), find(pj)
					if ri != rj && EstimatedJaccard(sks[pi], sks[pj]) >= threshold {
						parent[rj] = ri
					}
				}
			}
			lo = hi
		}
	}
	groups := make(map[int][]trace.Digest)
	for i, id := range ids {
		r := find(i)
		groups[r] = append(groups[r], id) // ids is sorted, so each group is too
	}
	out := make([][]trace.Digest, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	slices.SortFunc(out, func(x, y []trace.Digest) int {
		if c := cmp.Compare(len(y), len(x)); c != 0 {
			return c
		}
		return compareDigests(x[0], y[0])
	})
	return out
}

// compareDigests orders digests as their hex strings sort.
func compareDigests(a, b trace.Digest) int { return bytes.Compare(a[:], b[:]) }
