package main

// summary.go turns the traced run's spans into per-layer self time and
// the per-layer metrics.
//
// A span's self time is its interval minus what its child spans cover.
// Where children overlap, each instant is split evenly among the
// children running then, so the self times of one request add up
// exactly to its wall time. The root of a request is the
// client's http.request span: its self time is the loopback hop, the
// server.handler span's self time is the handler's own work (JSON, ref
// resolve, encode), and every layer below owns the self time of its
// spans.

import (
	"sort"
	"time"

	"repro/internal/corpus"
)

// layers in report order; "http" is the loopback hop, "server" the
// handler's own time.
var layers = []string{"http", "server", "engine", "corpus", "blob", "trace", "index", "views", "diff", "regression"}

type seg struct {
	a, b int64
	w    float64
}

// attribution is the self time, in ns, of each layer, overall and per
// op.
type attribution struct {
	self map[string]float64
	byOp map[string]map[string]float64
	wall map[string]float64 // per op: summed request wall time
	reqs map[string]int
}

func attribute(spans []span) *attribution {
	at := &attribution{self: map[string]float64{}, byOp: map[string]map[string]float64{},
		wall: map[string]float64{}, reqs: map[string]int{}}
	attachBlobSpans(spans)
	kids := make(map[int64][]*span)
	var roots []*span
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Name == "http.request":
			roots = append(roots, s)
		case s.Parent != 0:
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, r := range roots {
		if at.byOp[r.Op] == nil {
			at.byOp[r.Op] = map[string]float64{}
		}
		at.wall[r.Op] += float64(r.dur())
		at.reqs[r.Op]++
		at.walk(r, []seg{{r.Start, r.End, 1}}, kids)
	}
	return at
}

// walk hands each instant of s's weighted segments to s itself when no
// child runs, or in equal parts to the children running then.
func (at *attribution) walk(s *span, segs []seg, kids map[int64][]*span) {
	ch := kids[s.ID]
	credit := func(x, y int64, w float64) {
		v := w * float64(y-x)
		at.self[s.layer()] += v
		at.byOp[s.Op][s.layer()] += v
	}
	if len(ch) == 0 {
		for _, g := range segs {
			credit(g.a, g.b, g.w)
		}
		return
	}
	var pts []int64
	for _, g := range segs {
		pts = append(pts, g.a, g.b)
	}
	for _, c := range ch {
		pts = append(pts, c.Start, c.End)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	childSegs := make(map[*span][]seg)
	gi := 0
	var active []*span
	for i := 0; i+1 < len(pts); i++ {
		x, y := pts[i], pts[i+1]
		if x == y {
			continue
		}
		for gi < len(segs) && segs[gi].b <= x {
			gi++
		}
		if gi == len(segs) || segs[gi].a > x {
			continue // outside every segment handed to s
		}
		w := segs[gi].w
		active = active[:0]
		for _, c := range ch {
			if c.Start <= x && c.End >= y {
				active = append(active, c)
			}
		}
		if len(active) == 0 {
			credit(x, y, w)
			continue
		}
		for _, c := range active {
			childSegs[c] = append(childSegs[c], seg{x, y, w / float64(len(active))})
		}
	}
	for _, c := range ch {
		if gs := childSegs[c]; len(gs) > 0 {
			at.walk(c, gs, kids)
		}
	}
}

// attachBlobSpans gives each blob span (recorded without a context) the
// innermost corpus span whose interval encloses it.
func attachBlobSpans(spans []span) {
	var cs []*span
	for i := range spans {
		if spans[i].layer() == "corpus" {
			cs = append(cs, &spans[i])
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	for i := range spans {
		b := &spans[i]
		if b.layer() != "blob" || b.Parent != 0 {
			continue
		}
		j := sort.Search(len(cs), func(k int) bool { return cs[k].Start > b.Start })
		for k := j - 1; k >= 0 && k >= j-64; k-- {
			if cs[k].End >= b.End {
				b.Parent, b.Req, b.Op = cs[k].ID, cs[k].Req, cs[k].Op
				break
			}
		}
	}
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	n                                                int
	dur, bytes, entries, mem, compares, explorations float64
	evaluated                                        float64
}

func aggregate(spans []span) map[string]*spanAgg {
	out := make(map[string]*spanAgg)
	get := func(k string) *spanAgg {
		a := out[k]
		if a == nil {
			a = &spanAgg{}
			out[k] = a
		}
		return a
	}
	for i := range spans {
		s := &spans[i]
		keys := []string{s.Name}
		if s.Name == "corpus.get" && s.Miss {
			keys = append(keys, "corpus.get/miss")
		}
		for _, k := range keys {
			a := get(k)
			a.n++
			a.dur += float64(s.dur())
			a.bytes += float64(s.Bytes)
			a.entries += float64(s.Entries)
			a.mem += float64(s.MemBytes)
			a.compares += float64(s.Compares)
			a.explorations += float64(s.Explorations)
			a.evaluated += float64(s.Evaluated)
		}
	}
	return out
}

// tracedRun is everything the per-layer metrics are computed from.
type tracedRun struct {
	spans    []span
	traced   *window // the traced slices
	untraced *window // the untraced slices
	before   corpus.Stats
	after    corpus.Stats
	rejected int64 // server /stats rejected, over the traced slices
	// Go runtime deltas over the untraced slices.
	allocBytes, gcCycles uint64
}

// perLayer computes every per-layer metric, named as in BENCHMARK.json.
func perLayer(tr *tracedRun) (map[string]metric, *attribution) {
	at := attribute(tr.spans)
	ag := aggregate(tr.spans)
	reqs := float64(tr.traced.ok())
	ms := func(ns float64) float64 { return ns / float64(time.Millisecond) }
	meanMs := func(name string) float64 {
		if a := ag[name]; a != nil && a.n > 0 {
			return ms(a.dur / float64(a.n))
		}
		return 0
	}
	per := func(name string, f func(*spanAgg) float64) float64 {
		if a := ag[name]; a != nil && a.n > 0 {
			return f(a) / float64(a.n)
		}
		return 0
	}
	perReq := func(v float64) float64 {
		if reqs == 0 {
			return 0
		}
		return v / reqs
	}
	ratio := func(hits, total int64) float64 {
		if total <= 0 {
			return 1 // nothing was looked up, so nothing missed
		}
		return float64(hits) / float64(total)
	}
	b, a := tr.before, tr.after
	webLookups := (a.WebCache.Hits - b.WebCache.Hits) + (a.WebCache.Misses - b.WebCache.Misses)
	builds := a.WebCache.Misses - b.WebCache.Misses
	// Every web build reads its trace once; the stand-in's extra Store.Get
	// before a predicted build adds a hit, never a miss, so the hit ratio
	// of the reads the store would make is 1 - misses/builds.
	traceMisses := a.TraceCache.Misses - b.TraceCache.Misses
	traceHit := ratio(builds-traceMisses, builds)
	if traceHit < 0 {
		traceHit = 0
	}
	var bb, ba corpusBlob
	bb.from(b)
	ba.from(a)

	wall := float64(tr.traced.clientSum)
	var covered float64
	for _, op := range opNames {
		covered += at.wall[op]
	}
	unaccounted := 0.0
	if wall > 0 {
		unaccounted = 1 - covered/wall
	}
	overhead := 0.0
	if r := tr.traced.rps(); r > 0 {
		overhead = tr.untraced.rps()/r - 1
	}
	untracedReqs := float64(tr.untraced.ok())
	if untracedReqs == 0 {
		untracedReqs = 1
	}

	v := map[string]float64{
		"server.http_hop_ms":          perReq(ms(at.self["http"])),
		"server.handler_overhead_ms":  perReq(ms(at.self["server"])),
		"server.response_bytes":       per("http.request", func(a *spanAgg) float64 { return a.bytes }),
		"server.rejected":             float64(tr.rejected),
		"engine.diff_ms":              meanMs("engine.diff"),
		"engine.regression_ms":        meanMs("engine.regression"),
		"engine.search_ms":            meanMs("engine.search"),
		"corpus.resolve_ms":           meanMs("corpus.resolve"),
		"corpus.get_miss_ms":          meanMs("corpus.get/miss"),
		"corpus.trace_hit_ratio":      traceHit,
		"corpus.web_hit_ratio":        ratio(a.WebCache.Hits-b.WebCache.Hits, webLookups),
		"corpus.web_builds":           float64(builds),
		"corpus.evictions":            float64(a.Evictions - b.Evictions),
		"corpus.put_ms":               meanMs("corpus.put"),
		"blob.get_ms":                 meanMs("blob.get"),
		"blob.put_ms":                 meanMs("blob.put"),
		"blob.hydrations":             float64(ba.Hydrations - bb.Hydrations),
		"blob.bytes_down":             float64(ba.BytesDown - bb.BytesDown),
		"blob.retries":                float64(ba.Retries - bb.Retries),
		"blob.disk_evictions":         float64(ba.DiskEvictions - bb.DiskEvictions),
		"trace.upload_decode_ms":      meanMs("trace.read_any"),
		"trace.entries_per_req":       per("trace.read_any", func(a *spanAgg) float64 { return a.entries }),
		"views.build_ms":              meanMs("views.build"),
		"views.builds_per_req":        perReq(float64(builds)),
		"views.mem_bytes":             per("views.build", func(a *spanAgg) float64 { return a.mem }),
		"diff.ms":                     meanMs("diff.views_diff"),
		"diff.compares":               per("diff.views_diff", func(a *spanAgg) float64 { return a.compares }),
		"diff.explorations":           per("diff.views_diff", func(a *spanAgg) float64 { return a.explorations }),
		"diff.mem_bytes":              per("diff.views_diff", func(a *spanAgg) float64 { return a.mem }),
		"regression.pass_a_ms":        meanMs("regression.pass_a"),
		"regression.pass_b_ms":        meanMs("regression.pass_b"),
		"regression.pass_c_ms":        meanMs("regression.pass_c"),
		"regression.combine_ms":       meanMs("regression.combine"),
		"index.sketch_ms":             meanMs("index.sketch"),
		"search.evaluated":            per("engine.search", func(a *spanAgg) float64 { return a.evaluated }),
		"search.evaluated_per_hit":    per("engine.search", func(a *spanAgg) float64 { return a.evaluated }) / searchK,
		"runtime.alloc_bytes_per_req": float64(tr.allocBytes) / untracedReqs,
		"runtime.gc_cycles_per_req":   float64(tr.gcCycles) / untracedReqs,
		"unaccounted_share":           unaccounted,
		"tracing_overhead":            overhead,
	}
	for _, l := range layers {
		share := 0.0
		if wall > 0 {
			share = at.self[l] / wall
		}
		v["share."+l] = share
	}
	out := make(map[string]metric, len(v))
	for _, m := range perLayerMetrics {
		out[m.Name] = metric{Value: v[m.Name], Unit: m.Unit}
	}
	return out, at
}

// corpusBlob reads the blob counters out of corpus stats (zero without a
// bucket).
type corpusBlob struct{ Hydrations, BytesDown, Retries, DiskEvictions int64 }

func (c *corpusBlob) from(s corpus.Stats) {
	if s.Blob != nil {
		*c = corpusBlob{s.Blob.Hydrations, s.Blob.BytesDown, s.Blob.Retries, s.Blob.DiskEvictions}
	}
}
