package rprism

// Allocation guards for the interned-symbol refactor: views.Build and
// diff.ViewDiff must allocate strictly less than the string-keyed
// baseline they replaced. The baseline constants were measured on this
// exact workload (Rhino subject, GenScript(10, 3), planted arithmetic
// bug) at the commit immediately before the refactor; the guards assert
// a comfortable margin below them so ordinary variance cannot flake.

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/corpus"
	"repro/internal/diff"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/subjects"
	"repro/internal/trace"
	"repro/internal/views"
)

// Pre-refactor AllocsPerRun on the guard workload (string-keyed views,
// fmt.Sprintf correlation keys), recorded before the symbol core landed.
const (
	baselineBuildAllocs    = 13771
	baselineViewDiffAllocs = 27631
)

func guardTraces(t *testing.T) (*Trace, *Trace) {
	t.Helper()
	script := subjects.GenScript(10, 3)
	run := func(src string) *Trace {
		res, err := interp.Run(lang.MustParse(src), interp.Options{Args: []string{script}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Trace
	}
	l := run(subjects.RhinoSource())
	bad := strings.Replace(subjects.RhinoSource(),
		`if (sym.equals("+")) { return a + b; }`,
		`if (sym.equals("+")) { return a + b + a % 13 / 12; }`, 1)
	r := run(bad)
	return l, r
}

func TestViewsBuildAllocsBelowStringKeyedBaseline(t *testing.T) {
	l, _ := guardTraces(t)
	got := testing.AllocsPerRun(10, func() { views.Build(l) })
	if got >= baselineBuildAllocs {
		t.Errorf("views.Build allocates %.0f/run, not below the string-keyed baseline %d",
			got, baselineBuildAllocs)
	}
	// The refactor removed per-entry name slices and Sprintf keys; hold
	// the gains, not just the letter of "strictly less".
	if got > baselineBuildAllocs/2 {
		t.Errorf("views.Build allocates %.0f/run, regressed past half the baseline %d",
			got, baselineBuildAllocs)
	}
}

func TestViewDiffAllocsBelowStringKeyedBaseline(t *testing.T) {
	l, r := guardTraces(t)
	got := testing.AllocsPerRun(10, func() { diff.ViewDiff(l, r, diff.ViewOptions{}) })
	if got >= baselineViewDiffAllocs {
		t.Errorf("diff.ViewDiff allocates %.0f/run, not below the string-keyed baseline %d",
			got, baselineViewDiffAllocs)
	}
}

// maxSegmentLoadOverhead bounds what a corpus Get miss allocates, as a
// multiple of the entries slice it returns. A miss decodes each thread
// block into its own slice and scatters them into the trace's one: two
// entry slices, plus Args slabs sized to the thread and the symbol
// table. Full-size slabs per thread or a second copy of the entries
// breaks the bound.
const maxSegmentLoadOverhead = 3.5

func TestCorpusGetMissBytesBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation behavior")
	}
	// A one-trace decoded cache and two traces read in turn: every Get
	// is a disk-tier miss of one 300-entry, 3-thread RSEG segment.
	store, err := corpus.New(t.TempDir(), corpus.Options{TraceCacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ids [2]trace.Digest
	for i := range ids {
		if ids[i], _, err = store.Put(subjects.GenCorpusTrace(1, i, 300)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids { // warm the symbol table and the file cache
		if _, err := store.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := store.Get(ids[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perGet := float64(after.TotalAlloc-before.TotalAlloc) / runs
	entries := float64(300 * unsafe.Sizeof(trace.Entry{}))
	if got := perGet / entries; got > maxSegmentLoadOverhead {
		t.Errorf("a Get miss allocates %.0f B, %.2fx its %.0f B of entries (bound %.1fx)",
			perGet, got, entries, maxSegmentLoadOverhead)
	} else {
		t.Logf("a Get miss allocates %.0f B, %.2fx its entries", perGet, got)
	}
}
