// Command perfbench is rprism-serve's end-to-end benchmark: a
// closed-loop load generator with two clients driving an in-process
// rprism-serve over loopback HTTP, checking every answer.
//
//	perfbench --workload triage-warm --seed 1 --seconds 20 --trace 0
//
// Workloads: triage-warm, triage-cold, ingest-search (README.md says
// why each exists). With --trace 0 the run reports the end-to-end
// metrics; with --trace 1 it reports the per-layer metrics of a traced
// run and writes its spans and a summary under --out. The last line of
// standard output is one JSON object: correct, attempted, failed,
// metrics. run.sh builds and runs it from a checkout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/blob"
	"repro/internal/server"
)

const (
	setupRuns    = 3 // set-ups per run; setup_s is their median
	windowSlices = 5 // the window's slices; timings are medians over them
	warmup       = 1500 * time.Millisecond
	shadowWarmup = 500 * time.Millisecond // traced run: see runTraced
	putRate      = 40                     // pre-encoded uploads per client-second of window
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string // scratch space for corpora
	out      string // traced run: where spans and summary go
	// tamper rewrites every answer before the oracle sees it (self-test).
	tamper func([]byte) []byte
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var secs, traced int
	flag.StringVar(&cfg.workload, "workload", "", "workload: triage-warm, triage-cold or ingest-search")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	flag.IntVar(&secs, "seconds", 10, "measured window, in seconds")
	flag.IntVar(&traced, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for corpora")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench-trace"), "traced run: output directory")
	flag.Parse()
	cfg.seconds, cfg.trace = time.Duration(secs)*time.Second, traced == 1
	if secs < 1 || (traced != 0 && traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run, printing progress lines to log.
func run(cfg config, log io.Writer) (*result, error) {
	w, err := generate(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	if w.puts != nil {
		n := int(cfg.seconds.Seconds()+warmup.Seconds()+1) * putRate * clients
		if cfg.trace {
			n *= 2
		}
		if err := w.puts.fill(n); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	o := &oracle{w: w}

	var tr *tracer
	var wrap func(*node, http.Handler) http.Handler
	var bucket func(blob.Backend) blob.Backend
	if cfg.trace {
		tr = newTracer()
		wrap = tr.wrap
		bucket = func(b blob.Backend) blob.Backend { return &timedBucket{Backend: b, t: tr} }
	}
	var n *node
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if n != nil {
			if err := n.stop(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		if n, d, err = setUp(root, w, hc, o, wrap, bucket); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	defer n.stop()
	// The upload bodies are not needed again; dropping them keeps the
	// load generator's share of heap_live_mb small.
	for i := range w.corpus {
		w.corpus[i].body = nil
	}
	o.tamper = cfg.tamper
	fmt.Fprintf(log, "perfbench: workload=%s seed=%d seconds=%d trace=%v corpus=%d traces\n",
		w.name, w.seed, int(cfg.seconds.Seconds()), cfg.trace, len(w.corpus))

	g := newLoadGen(n, w, o, hc, tr)
	g.run(warmup)
	if tr != nil {
		return runTraced(cfg, log, g, tr)
	}
	var slices []*window
	win := &window{}
	for i := 0; i < windowSlices; i++ {
		s := g.run(cfg.seconds / windowSlices)
		slices = append(slices, s)
		win.add(s)
	}
	if w.puts != nil {
		w.puts.release()
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	disk, err := n.diskBytes()
	if err != nil {
		return nil, err
	}
	entries := 0
	for _, u := range w.corpus {
		entries += u.entries
	}
	entries += o.putsDone() * corpusLen

	checked, bad, err := o.verifySearches(context.Background())
	if err != nil {
		return nil, err
	}
	win.failed += bad
	if bad > 0 {
		win.errs = append(win.errs, fmt.Errorf("%d of %d sampled searches differ from the exhaustive scan", bad, checked))
	}

	lead, side := opDiff, opRegression
	if w.puts != nil {
		lead, side = opSearch, opPut
	}
	// Every timing is the median over the slices, so a burst of
	// interference from outside the process moves one slice, not the
	// result.
	perSlice := func(f func(*window) float64) float64 {
		xs := make([]float64, len(slices))
		for i, s := range slices {
			xs[i] = f(s)
		}
		return median(xs)
	}
	q := func(k opKind, p float64) float64 {
		return perSlice(func(s *window) float64 { return quantile(s.lat[k], p) })
	}
	v := map[string]float64{
		"setup_s":              median(setups),
		"throughput_rps":       perSlice((*window).rps),
		"lead_p50_ms":          q(lead, 0.5),
		"lead_p90_ms":          q(lead, 0.9),
		"side_p50_ms":          q(side, 0.5),
		"side_p90_ms":          q(side, 0.9),
		"heap_live_mb":         float64(mem.HeapAlloc) / (1 << 20),
		"disk_bytes_per_entry": float64(disk) / float64(entries),
	}
	for k := opKind(0); k < numOps; k++ {
		if len(win.lat[k]) > 0 {
			fmt.Fprintf(log, "perfbench: %s n=%d %s_p50_ms=%.3f %s_p90_ms=%.3f\n", k, len(win.lat[k]),
				k, q(k, 0.5), k, q(k, 0.9))
		}
	}
	fmt.Fprintf(log, "perfbench: setup_s runs=%v searches_checked=%d error_rate=%.4f\n",
		setups, checked, float64(win.failed)/float64(max(win.attempted, 1)))
	res := &result{Attempted: win.attempted, Failed: win.failed, Metrics: map[string]metric{}}
	for _, m := range endToEndMetrics {
		res.Metrics[m.Name] = metric{Value: v[m.Name], Unit: m.Unit}
	}
	res.Correct = finish(log, win)
	return res, nil
}

// runTraced measures untraced, traced, untraced slices (so corpus growth
// during ingest-search biases neither side) and reports the per-layer
// metrics.
func runTraced(cfg config, log io.Writer, g *loadGen, tr *tracer) (*result, error) {
	half := cfg.seconds / 2
	run := &tracedRun{traced: &window{}, untraced: &window{}}
	untraced := func(d time.Duration) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run.untraced.add(g.run(d))
		runtime.ReadMemStats(&m1)
		run.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		run.gcCycles += uint64(m1.NumGC - m0.NumGC)
	}
	untraced(half)
	rej0, err := rejected(g)
	if err != nil {
		return nil, err
	}
	// A short run through the stand-ins, unrecorded, brings their cache
	// shadows in step with the store's LRUs before the traced slice.
	tr.install(g.n.store)
	g.run(shadowWarmup)
	run.before = g.n.store.Stats()
	tr.record.Store(true)
	run.traced.add(g.run(cfg.seconds))
	tr.record.Store(false)
	run.after = g.n.store.Stats()
	tr.uninstall()
	rej1, err := rejected(g)
	if err != nil {
		return nil, err
	}
	run.rejected = rej1 - rej0
	untraced(cfg.seconds - half)
	run.spans = tr.take()
	if g.w.puts != nil {
		g.w.puts.release()
	}

	metrics, at := perLayer(run)
	all := &window{}
	all.add(run.untraced)
	all.add(run.traced)
	checked, bad, err := g.o.verifySearches(context.Background())
	if err != nil {
		return nil, err
	}
	all.failed += bad
	if err := writeTrace(cfg, run, metrics, at); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: traced requests=%d spans=%d searches_checked=%d unaccounted_share=%.4f tracing_overhead=%.4f\n",
		run.traced.ok(), len(run.spans), checked, metrics["unaccounted_share"].Value, metrics["tracing_overhead"].Value)
	res := &result{Attempted: all.attempted, Failed: all.failed, Metrics: metrics}
	res.Correct = finish(log, all)
	return res, nil
}

// rejected reads the server's queue-full count from GET /stats.
func rejected(g *loadGen) (int64, error) {
	body, status, err := do(g.hc, http.MethodGet, g.n.url+"/stats", nil, 0)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("GET /stats: status %d", status)
	}
	var st server.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, fmt.Errorf("GET /stats: %w", err)
	}
	return st.Server.Rejected, nil
}

// writeTrace writes the span file and the summary of a traced run.
func writeTrace(cfg config, run *tracedRun, metrics map[string]metric, at *attribution) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range run.spans {
		if err := enc.Encode(&run.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}

	type layerShare struct {
		SelfMs float64 `json:"self_ms"`
		Share  float64 `json:"share"`
	}
	type opSummary struct {
		Requests int                   `json:"requests"`
		WallMs   float64               `json:"wall_ms"`
		Layers   map[string]layerShare `json:"layers"`
	}
	wall := float64(run.traced.clientSum)
	sum := struct {
		Workload         string                `json:"workload"`
		Seed             int64                 `json:"seed"`
		Seconds          float64               `json:"seconds"`
		Requests         int                   `json:"requests"`
		ClientWallMs     float64               `json:"client_wall_ms"`
		UnaccountedShare float64               `json:"unaccounted_share"`
		TracingOverhead  float64               `json:"tracing_overhead"`
		Layers           map[string]layerShare `json:"layers"`
		Ops              map[string]opSummary  `json:"ops"`
		Metrics          map[string]metric     `json:"metrics"`
	}{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(),
		Requests: run.traced.ok(), ClientWallMs: wall / 1e6,
		UnaccountedShare: metrics["unaccounted_share"].Value,
		TracingOverhead:  metrics["tracing_overhead"].Value,
		Layers:           map[string]layerShare{}, Ops: map[string]opSummary{}, Metrics: metrics,
	}
	for _, l := range layers {
		sum.Layers[l] = layerShare{SelfMs: at.self[l] / 1e6, Share: at.self[l] / wall}
	}
	for op, byLayer := range at.byOp {
		s := opSummary{Requests: at.reqs[op], WallMs: at.wall[op] / 1e6, Layers: map[string]layerShare{}}
		for _, l := range layers {
			s.Layers[l] = layerShare{SelfMs: byLayer[l] / 1e6, Share: byLayer[l] / at.wall[op]}
		}
		sum.Ops[op] = s
	}
	raw, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".summary.json", append(raw, '\n'), 0o644)
}

// finish prints the failures and reports whether the run was correct.
func finish(log io.Writer, win *window) bool {
	for _, err := range win.errs {
		fmt.Fprintln(log, "perfbench: failure:", err)
	}
	return win.failed == 0 && win.attempted > 0
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// diskBytes is what the corpus occupies: its directory plus, with a
// bucket, the bucket's objects.
func (n *node) diskBytes() (int64, error) {
	total, err := dirBytes(n.dir)
	if err != nil || n.bucket == nil {
		return total, err
	}
	ctx := context.Background()
	keys, err := n.bucket.List(ctx, "")
	if err != nil {
		return 0, err
	}
	for _, k := range keys {
		size, err := n.bucket.Stat(ctx, k)
		if err != nil && !errors.Is(err, blob.ErrNotFound) {
			return 0, err
		}
		total += size
	}
	return total, nil
}
