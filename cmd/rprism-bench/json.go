package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	rprism "repro"
	"repro/capture"
	"repro/capture/woven"
	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/diff"
	"repro/internal/index"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/server"
	"repro/internal/subjects"
	"repro/internal/trace"
	"repro/internal/views"
)

// BenchRecord is one machine-readable measurement.
type BenchRecord struct {
	Name          string  `json:"name"`
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	ComparesPerOp int64   `json:"compares_per_op,omitempty"`
	DiffsPerOp    int     `json:"diffs_per_op,omitempty"`
	// Workers is the intra-diff (or build) worker count of a parallel
	// hot-path row; SpeedupVsSerial is that row's wall-clock speedup over
	// the workers=1 row of the same family, measured in this run.
	Workers         int     `json:"workers,omitempty"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
	// EntriesPerSec is the streaming-ingestion throughput of an
	// incremental-append row: trace entries absorbed into a live web per
	// second.
	EntriesPerSec float64 `json:"entries_per_sec,omitempty"`
	// SpeedupVsJSONL is a format row's wall-clock speedup over the
	// JSONLIngest baseline of the same run — the RSEG trajectory number.
	SpeedupVsJSONL float64 `json:"speedup_vs_jsonl,omitempty"`
	// SpeedupVsFullRediff is the sentinel row's wall-clock speedup of an
	// incremental re-diff over a from-scratch re-diff of the same
	// snapshot, measured in this run.
	SpeedupVsFullRediff float64 `json:"speedup_vs_full_rediff,omitempty"`
	// SlowdownVsUnwoven is a weave-overhead row's per-call cost relative
	// to the WeaveUnwoven baseline of the same run: what a function call
	// pays for being woven, with hooks disabled or recording.
	SlowdownVsUnwoven float64 `json:"slowdown_vs_unwoven,omitempty"`
	// SpeedupVsExhaustive is the TopKPruned row's wall-clock speedup over
	// the exhaustive all-pairs scan of the same corpus and query,
	// measured in this run after asserting both rank identically.
	SpeedupVsExhaustive float64 `json:"speedup_vs_exhaustive,omitempty"`
	// SketchFractionOfPut is the SketchCompute row's cost as a fraction
	// of the CorpusPut row — the ingest overhead the similarity index
	// adds to Store.Put (acceptance budget: < 0.05).
	SketchFractionOfPut float64 `json:"sketch_fraction_of_put,omitempty"`
	// SlowdownVsLocal compares a remote-flavored row against its local
	// counterpart measured in the same run: BlobGetCold (bucket
	// hydration) vs BlobGetHydrated (warm disk tier), and
	// ServeDiffForwarded (one cluster forwarding hop) vs ServeDiffLocal
	// (the owner answers directly).
	SlowdownVsLocal float64 `json:"slowdown_vs_local,omitempty"`
}

// BenchReport is the file written by -json: the perf trajectory of the
// pipeline hot paths, trackable across PRs.
type BenchReport struct {
	Benchmarks []BenchRecord     `json:"benchmarks"`
	Symbols    trace.SymbolStats `json:"symbols"`
	// CorpusCaches snapshots the search corpus's trace/web LRU counters
	// after the TopK rows ran — hit ratios on a realistic search load.
	CorpusCaches *corpus.Stats `json:"corpus_caches,omitempty"`
}

// sinkInt defeats dead-code elimination in the weave-overhead rows.
var sinkInt int

//go:noinline
func unwovenStep(n int) int { return n + 1 }

//go:noinline
func wovenStep(n int) int {
	defer woven.Enter("bench.wovenStep/1")()
	return n + 1
}

// multithreadedPair runs the parallel-diff subject twice (clean and
// biased), producing a trace pair whose diff decomposes into independent
// per-thread-pair units.
func multithreadedPair(workers, iters int) (*trace.Trace, *trace.Trace, error) {
	runIt := func(bias string) (*trace.Trace, error) {
		res, err := interp.Run(lang.MustParse(subjects.MultithreadedSource(workers, iters, bias)), interp.Options{})
		if err != nil {
			return nil, err
		}
		if res.Err != nil && !res.Err.Aborted {
			return nil, res.Err
		}
		return res.Trace, nil
	}
	l, err := runIt("0")
	if err != nil {
		return nil, nil, err
	}
	r, err := runIt("1")
	if err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

// writeJSONReport measures the pipeline hot paths with testing.Benchmark
// and writes the report to path.
func writeJSONReport(path string) error {
	prog := lang.MustParse(subjects.RhinoSource())
	script := subjects.GenScript(30, 5)
	runTrace := func(src *lang.Program) (*trace.Trace, error) {
		res, err := interp.Run(src, interp.Options{Args: []string{script}})
		if err != nil {
			return nil, err
		}
		if res.Err != nil && !res.Err.Aborted {
			return nil, res.Err
		}
		return res.Trace, nil
	}
	l, err := runTrace(prog)
	if err != nil {
		return err
	}
	bad := lang.MustParse(strings.Replace(subjects.RhinoSource(),
		`if (sym.equals("+")) { return a + b; }`,
		`if (sym.equals("+")) { return a + b + a % 13 / 12; }`, 1))
	r, err := runTrace(bad)
	if err != nil {
		return err
	}

	var report BenchReport
	// record measures fn and returns the appended record so callers can
	// attach result-derived metrics (compares, diffs) afterwards.
	record := func(name string, fn func(b *testing.B)) *BenchRecord {
		res := testing.Benchmark(fn)
		report.Benchmarks = append(report.Benchmarks, BenchRecord{
			Name:        name,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
		return &report.Benchmarks[len(report.Benchmarks)-1]
	}

	record("ViewsBuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			views.Build(l)
		}
	})
	var vd *diff.Result
	rec := record("ViewDiff", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vd = diff.ViewDiff(l, r, diff.ViewOptions{})
		}
	})
	rec.ComparesPerOp = vd.Stats.Compares
	rec.DiffsPerOp = vd.NumDiffs()

	// The serve hot path: diff over cached webs, amortizing Build.
	dir, err := os.MkdirTemp("", "rprism-bench-corpus")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := corpus.New(dir, corpus.Options{})
	if err != nil {
		return err
	}
	lid, _, err := store.Put(l)
	if err != nil {
		return err
	}
	rid, _, err := store.Put(r)
	if err != nil {
		return err
	}
	wl, err := store.Views(lid)
	if err != nil {
		return err
	}
	wr, err := store.Views(rid)
	if err != nil {
		return err
	}
	var cd *diff.Result
	rec = record("ViewDiffCachedWebs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cd = diff.ViewDiffWebs(wl, wr, diff.ViewOptions{})
		}
	})
	rec.ComparesPerOp = cd.Stats.Compares
	rec.DiffsPerOp = cd.NumDiffs()

	// The same hot path through the Engine API: FromCorpus sources
	// resolving against the store's web cache. Tracks the abstraction
	// tax of the public API — it must stay within noise of
	// ViewDiffCachedWebs (see BenchmarkEngineDiffCached).
	eng := rprism.NewEngine(rprism.WithCorpus(store))
	left, right := rprism.FromCorpus(lid), rprism.FromCorpus(rid)
	ctx := context.Background()
	var ed *diff.Result
	rec = record("EngineDiffCached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if ed, err = eng.Diff(ctx, left, right); err != nil {
				b.Fatal(err)
			}
		}
	})
	rec.ComparesPerOp = ed.Stats.Compares
	rec.DiffsPerOp = ed.NumDiffs()

	// The parallel hot paths: the per-thread-pair diff worker pool and
	// the sharded web build, on a multithreaded subject. The workers=1
	// rows are the serial baselines; higher rows carry their speedup.
	// Every worker count produces the identical Result, so compares/op
	// are recorded once from the serial row.
	ml, mr, err := multithreadedPair(8, 150)
	if err != nil {
		return err
	}
	mwl, mwr := views.Build(ml), views.Build(mr)
	var serialNs float64
	var pd *diff.Result
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		rec = record(fmt.Sprintf("ViewDiffParallel/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pd = diff.ViewDiffWebs(mwl, mwr, diff.ViewOptions{Parallelism: w})
			}
		})
		rec.Workers = w
		rec.ComparesPerOp = pd.Stats.Compares
		rec.DiffsPerOp = pd.NumDiffs()
		if w == 1 {
			serialNs = rec.NsPerOp
		} else if rec.NsPerOp > 0 {
			rec.SpeedupVsSerial = serialNs / rec.NsPerOp
		}
	}
	var buildSerialNs float64
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		rec = record(fmt.Sprintf("ViewsBuildParallel/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := views.BuildCtxOpts(ctx, ml, views.BuildOptions{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
		rec.Workers = w
		if w == 1 {
			buildSerialNs = rec.NsPerOp
		} else if rec.NsPerOp > 0 {
			rec.SpeedupVsSerial = buildSerialNs / rec.NsPerOp
		}
	}

	// Streaming ingestion: the incremental builder absorbing the trace in
	// capture-sized segments, the serve-side cost of one live session
	// (mirrors BenchmarkIncrementalAppend). The throughput row is what a
	// deployment sizes its capture fan-in against.
	const ingestSegment = 4096
	rec = record("IncrementalAppend", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ib := views.NewIncrementalBuilder(ml.Name)
			for lo := 0; lo < ml.Len(); lo += ingestSegment {
				hi := lo + ingestSegment
				if hi > ml.Len() {
					hi = ml.Len()
				}
				if err := ib.Append(ml.Entries[lo:hi]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	if rec.NsPerOp > 0 {
		rec.EntriesPerSec = float64(ml.Len()) / (rec.NsPerOp / 1e9)
	}

	// The sentinel hot path: a watched quiet session takes one small
	// single-thread segment and the watch re-diffs against its pinned
	// baseline (mirrors BenchmarkSentinelIncrementalRediff). One of 17
	// thread pairs is dirty, so the incremental evaluation recomputes
	// ~6% of the pairs and patches the merged similarity/difference
	// state; the full row is what every evaluation would cost without
	// the cache, and the speedup is the always-on-watch economics.
	const sentinelTail = 96
	sentBase, _, err := multithreadedPair(16, 100)
	if err != nil {
		return err
	}
	sentWL := views.Build(sentBase)
	liveTr := trace.New("bench-live")
	for _, e := range sentBase.Entries {
		liveTr.Append(e.TID, e.Method, e.Self, e.Event)
	}
	quiet := trace.Repr{Loc: trace.Loc(9001), Class: "Quiet", Seq: 1}
	for k := 0; k < sentinelTail; k++ {
		liveTr.Append(0, "Quiet.tick/0", quiet,
			trace.Event{Kind: trace.KindCall, Target: quiet, Member: "Quiet.tick/0"})
	}
	ib2 := views.NewIncrementalBuilder(liveTr.Name)
	if err := ib2.Append(liveTr.Entries[:sentBase.Len()]); err != nil {
		return err
	}
	snap0 := ib2.Snapshot()
	if err := ib2.Append(liveTr.Entries[sentBase.Len():]); err != nil {
		return err
	}
	snap1 := ib2.Snapshot()
	rec = record("SentinelIncrementalRediff", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			inc := diff.NewIncremental(sentWL, diff.ViewOptions{})
			if _, _, err := inc.Rediff(ctx, snap0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, _, err := inc.Rediff(ctx, snap1); err != nil {
				b.Fatal(err)
			}
		}
	})
	incNs := rec.NsPerOp
	if incNs > 0 {
		rec.EntriesPerSec = float64(sentinelTail) / (incNs / 1e9)
	}
	incIdx := len(report.Benchmarks) - 1
	rec = record("SentinelFullRediff", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := diff.ViewDiffWebsCtx(ctx, sentWL, snap1, diff.ViewOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if incNs > 0 {
		report.Benchmarks[incIdx].SpeedupVsFullRediff = rec.NsPerOp / incNs
	}

	// Segment-format ingestion: decoding the multithreaded trace from an
	// in-memory image in each on-disk encoding. JSONLIngest is the legacy
	// baseline; the RSEG rows carry their speedup over it.
	var jsonlImage bytes.Buffer
	if err := ml.WriteJSONL(&jsonlImage); err != nil {
		return err
	}
	var rsegImage bytes.Buffer
	if err := ml.WriteRSEG(&rsegImage); err != nil {
		return err
	}
	rsegPath := filepath.Join(dir, "bench.rseg")
	if err := os.WriteFile(rsegPath, rsegImage.Bytes(), 0o644); err != nil {
		return err
	}
	rec = record("JSONLIngest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.ReadJSONL("bench", bytes.NewReader(jsonlImage.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	jsonlNs := rec.NsPerOp
	rec = record("RSEGIngest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd, err := trace.OpenRSEGBytes(rsegImage.Bytes(), "bench")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rd.Trace(); err != nil {
				b.Fatal(err)
			}
			rd.Close()
		}
	})
	if rec.NsPerOp > 0 {
		rec.SpeedupVsJSONL = jsonlNs / rec.NsPerOp
	}
	rec = record("RSEGLoad", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.LoadRSEG(rsegPath); err != nil {
				b.Fatal(err)
			}
		}
	})
	if rec.NsPerOp > 0 {
		rec.SpeedupVsJSONL = jsonlNs / rec.NsPerOp
	}
	// The corpus disk tier end to end: a cold store serving Get from RSEG
	// segments (mirrors BenchmarkCorpusGetCold).
	rec = record("CorpusGetCold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cold, err := corpus.New(dir, corpus.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cold.Get(lid); err != nil {
				b.Fatal(err)
			}
		}
	})
	if rec.NsPerOp > 0 {
		rec.SpeedupVsJSONL = jsonlNs / rec.NsPerOp
	}

	// The corpus-scale search rows (mirror BenchmarkTopKPruned /
	// BenchmarkTopKExhaustive): top-10 divergence search over a 200-trace
	// generated corpus, sketch-pruned vs the exhaustive all-pairs
	// baseline. The results are asserted identical outside the timers;
	// the pruned row carries the measured speedup.
	searchDir, err := os.MkdirTemp("", "rprism-bench-search")
	if err != nil {
		return err
	}
	defer os.RemoveAll(searchDir)
	searchStore, err := corpus.New(searchDir, corpus.Options{
		TraceCacheSize: 256, WebCacheSize: 256,
	})
	if err != nil {
		return err
	}
	var queryID trace.Digest
	for fam := 1; fam <= 10; fam++ {
		for v := 0; v < 20; v++ {
			id, _, err := searchStore.Put(subjects.GenCorpusTrace(fam, v, 300))
			if err != nil {
				return err
			}
			if fam == 1 && v == 0 {
				queryID = id
			}
			if _, err := searchStore.Views(id); err != nil {
				return err
			}
		}
	}
	searchEng := rprism.NewEngine(rprism.WithCorpus(searchStore))
	query := rprism.FromCorpus(queryID)
	prunedRes, err := searchEng.Search(ctx, query, rprism.SearchOptions{K: 10})
	if err != nil {
		return err
	}
	exhaustRes, err := searchEng.Search(ctx, query, rprism.SearchOptions{K: 10, Exhaustive: true})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(prunedRes.Hits, exhaustRes.Hits) {
		return fmt.Errorf("pruned top-10 differs from exhaustive baseline")
	}
	rec = record("TopKExhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := searchEng.Search(ctx, query, rprism.SearchOptions{K: 10, Exhaustive: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	exhaustNs := rec.NsPerOp
	rec.DiffsPerOp = exhaustRes.Evaluated
	rec = record("TopKPruned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := searchEng.Search(ctx, query, rprism.SearchOptions{K: 10}); err != nil {
				b.Fatal(err)
			}
		}
	})
	rec.DiffsPerOp = prunedRes.Evaluated
	if rec.NsPerOp > 0 {
		rec.SpeedupVsExhaustive = exhaustNs / rec.NsPerOp
	}
	searchStats := searchStore.Stats()
	report.CorpusCaches = &searchStats

	// The sketch ingest tax: what Store.Put pays for sketching a trace it
	// writes (the sketch is folded into the same segment-write pass).
	rec = record("CorpusPut", func(b *testing.B) {
		b.ReportAllocs()
		putDir, err := os.MkdirTemp("", "rprism-bench-put")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(putDir)
		putStore, err := corpus.New(putDir, corpus.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tr := subjects.GenCorpusTrace(99, i, 300)
			b.StartTimer()
			if _, _, err := putStore.Put(tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	putNs := rec.NsPerOp
	if err := corpusScaleRows(record); err != nil {
		return err
	}
	skTr := subjects.GenCorpusTrace(99, 0, 300)
	rec = record("SketchCompute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			index.SketchTrace(skTr)
		}
	})
	if putNs > 0 {
		rec.SketchFractionOfPut = rec.NsPerOp / putNs
	}

	// The weave tax (mirrors BenchmarkWeaveOverhead): what one function
	// call pays for being woven — with hooks disabled (a woven binary run
	// outside the recorder) and while recording to a disk capture.
	rec = record("WeaveUnwoven", func(b *testing.B) {
		b.ReportAllocs()
		acc := 0
		for i := 0; i < b.N; i++ {
			acc = unwovenStep(acc)
		}
		sinkInt = acc
	})
	unwovenNs := rec.NsPerOp
	woven.Attach(nil)
	rec = record("WeaveHookOff", func(b *testing.B) {
		b.ReportAllocs()
		acc := 0
		for i := 0; i < b.N; i++ {
			acc = wovenStep(acc)
		}
		sinkInt = acc
	})
	if unwovenNs > 0 {
		rec.SlowdownVsUnwoven = rec.NsPerOp / unwovenNs
	}
	weaveDir, err := os.MkdirTemp("", "rprism-bench-weave-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(weaveDir)
	wrec, err := capture.Start(capture.Options{Name: "bench", Dir: weaveDir})
	if err != nil {
		return err
	}
	woven.Attach(wrec)
	rec = record("WeaveHookRecording", func(b *testing.B) {
		b.ReportAllocs()
		acc := 0
		for i := 0; i < b.N; i++ {
			acc = wovenStep(acc)
		}
		sinkInt = acc
	})
	woven.Attach(nil)
	if _, err := wrec.Close(); err != nil {
		return err
	}
	if unwovenNs > 0 {
		rec.SlowdownVsUnwoven = rec.NsPerOp / unwovenNs
	}

	// The blob tier end to end: Get on a store whose trace exists only
	// in the bucket (cold — list, download and decode the segments) vs a
	// store whose disk tier already holds it (hydrated — decode only).
	// The delta is the pure hydration cost a cache miss pays.
	bucket := blob.NewMem()
	blobDir, err := os.MkdirTemp("", "rprism-bench-blob")
	if err != nil {
		return err
	}
	defer os.RemoveAll(blobDir)
	seedStore, err := corpus.New(blobDir, corpus.Options{Blob: bucket})
	if err != nil {
		return err
	}
	blid, _, err := seedStore.Put(ml)
	if err != nil {
		return err
	}
	rec = record("BlobGetHydrated", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			warm, err := corpus.New(blobDir, corpus.Options{Blob: bucket})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := warm.Get(blid); err != nil {
				b.Fatal(err)
			}
		}
	})
	hydratedNs := rec.NsPerOp
	rec = record("BlobGetCold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			coldDir, err := os.MkdirTemp("", "rprism-bench-blob-cold")
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			coldStore, err := corpus.New(coldDir, corpus.Options{Blob: bucket})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := coldStore.Get(blid); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			os.RemoveAll(coldDir)
			b.StartTimer()
		}
	})
	if hydratedNs > 0 {
		rec.SlowdownVsLocal = rec.NsPerOp / hydratedNs
	}

	// The cluster serve rows: one POST /run/diff through the HTTP API when
	// the receiving node owns the left digest (local) and when the
	// request lands on the peer (one buffered forwarding hop). The delta
	// is the cluster tax — proxying, not recomputing.
	serveLocalNs, serveRows, err := clusterServeRows(record, l, r)
	if err != nil {
		return err
	}
	if serveLocalNs > 0 {
		serveRows.SlowdownVsLocal = serveRows.NsPerOp / serveLocalNs
	}

	report.Symbols = trace.GlobalSymbolStats()
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d benchmark records to %s\n", len(report.Benchmarks), path)
	return nil
}

// clusterServeRows measures the ServeDiffLocal and ServeDiffForwarded
// rows on a live two-node ring sharing one in-memory bucket. It returns
// the local row's ns/op and the forwarded record (for the caller to
// attach the slowdown).
func clusterServeRows(record func(string, func(*testing.B)) *BenchRecord,
	l, r *trace.Trace) (float64, *BenchRecord, error) {
	bucket := blob.NewMem()
	nodes := make([]*httptest.Server, 2)
	nodes[0], nodes[1] = httptest.NewUnstartedServer(nil), httptest.NewUnstartedServer(nil)
	peers := make([]cluster.Peer, 2)
	for i, id := range []string{"a", "b"} {
		peers[i] = cluster.Peer{ID: id, URL: "http://" + nodes[i].Listener.Addr().String()}
	}
	clusters := make([]*cluster.Cluster, 2)
	for i := range nodes {
		dir, err := os.MkdirTemp("", "rprism-bench-cluster")
		if err != nil {
			return 0, nil, err
		}
		defer os.RemoveAll(dir)
		store, err := corpus.New(dir, corpus.Options{Blob: bucket})
		if err != nil {
			return 0, nil, err
		}
		cl, err := cluster.New(cluster.Options{Self: peers[i].ID, Peers: peers})
		if err != nil {
			return 0, nil, err
		}
		clusters[i] = cl
		srv := server.New(rprism.NewEngine(rprism.WithCorpus(store)), server.Options{Cluster: cl})
		nodes[i].Config.Handler = srv.Handler()
		nodes[i].Start()
		defer nodes[i].Close()
	}

	upload := func(tr *trace.Trace) (string, error) {
		var buf bytes.Buffer
		if err := tr.WriteRSEG(&buf); err != nil {
			return "", err
		}
		req, err := http.NewRequest(http.MethodPut, nodes[0].URL+"/traces", &buf)
		if err != nil {
			return "", err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		var info struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("upload: status %d", resp.StatusCode)
		}
		return info.ID, nil
	}
	lid, err := upload(l)
	if err != nil {
		return 0, nil, err
	}
	rid, err := upload(r)
	if err != nil {
		return 0, nil, err
	}
	ld, err := trace.ParseDigest(lid)
	if err != nil {
		return 0, nil, err
	}
	// The left digest decides ownership: the owner serves the diff
	// locally, the other node takes the forwarding hop.
	ownerURL, otherURL := nodes[0].URL, nodes[1].URL
	if clusters[0].Owner(ld).ID == "b" {
		ownerURL, otherURL = otherURL, ownerURL
	}
	body, err := json.Marshal(server.RunRequest{Traces: map[string]string{"left": lid, "right": rid}})
	if err != nil {
		return 0, nil, err
	}
	post := func(b *testing.B, base string) {
		resp, err := http.Post(base+"/run/diff", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("diff: status %d", resp.StatusCode)
		}
	}
	rec := record("ServeDiffLocal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post(b, ownerURL)
		}
	})
	localNs := rec.NsPerOp
	rec = record("ServeDiffForwarded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post(b, otherURL)
		}
	})
	return localNs, rec, nil
}

// corpusScaleRows records a Get miss and a Put of a 300-entry trace
// beside 2 and 1000 stored traces (mirrors BenchmarkCorpusScale):
// per-trace disk paths open files by name, so neither row may grow
// with the corpus. A one-trace decoded cache and two traces read in
// turn make every Get a miss, which is why the small corpus holds two.
func corpusScaleRows(record func(string, func(*testing.B)) *BenchRecord) error {
	for _, n := range []int{2, 1000} {
		dir, err := os.MkdirTemp("", "rprism-bench-scale")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		store, err := corpus.New(dir, corpus.Options{TraceCacheSize: 1})
		if err != nil {
			return err
		}
		var ids [2]trace.Digest
		for i := 0; i < n; i++ {
			id, _, err := store.Put(subjects.GenCorpusTrace(1+i%10, i, 300))
			if err != nil {
				return err
			}
			if i < len(ids) {
				ids[i] = id
			}
		}
		record(fmt.Sprintf("CorpusGetMiss/traces=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := store.Get(ids[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
		next := n // variants not yet stored, across the benchmark's rounds
		record(fmt.Sprintf("CorpusPut/traces=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr := subjects.GenCorpusTrace(99, next, 300)
				next++
				b.StartTimer()
				if _, _, err := store.Put(tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	return nil
}
