package main

// load.go is the closed-loop load generator: clients goroutines, each
// sending its next request only after the previous answer is read and
// checked.

import (
	"net/http"
	"sort"
	"sync"
	"time"
)

// clients is the closed loop's width: one per core of the 2-core
// machines the benchmark targets.
const clients = 2

// window is what one measured interval observed.
type window struct {
	elapsed   time.Duration // start to the last client's stop
	clientSum time.Duration // summed loop time of the clients
	attempted int
	failed    int
	errs      []error // the first few failures
	lat       [numOps][]time.Duration
}

func (w *window) ok() int {
	n := 0
	for _, l := range w.lat {
		n += len(l)
	}
	return n
}

func (w *window) rps() float64 { return float64(w.ok()) / w.elapsed.Seconds() }

// add merges another window's observations.
func (w *window) add(o *window) {
	w.elapsed += o.elapsed
	w.clientSum += o.clientSum
	w.attempted += o.attempted
	w.failed += o.failed
	w.errs = append(w.errs, o.errs...)
	for k := range w.lat {
		w.lat[k] = append(w.lat[k], o.lat[k]...)
	}
}

// loadGen drives one node with the workload's mix.
type loadGen struct {
	n     *node
	w     *workload
	o     *oracle
	hc    *http.Client
	mixes []*clientMix
	tr    *tracer // non-nil in the traced run
}

func newLoadGen(n *node, w *workload, o *oracle, hc *http.Client, tr *tracer) *loadGen {
	g := &loadGen{n: n, w: w, o: o, hc: hc, tr: tr}
	for c := 0; c < clients; c++ {
		g.mixes = append(g.mixes, newClientMix(w, c))
	}
	return g
}

// run drives the closed loop for d and returns what it saw. Requests in
// flight at the deadline complete and count.
func (g *loadGen) run(d time.Duration) *window {
	per := make([]*window, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			win := &window{}
			for time.Now().Before(deadline) {
				g.one(g.mixes[c], win)
			}
			win.clientSum = time.Since(start)
			per[c] = win
		}()
	}
	wg.Wait()
	out := &window{}
	for _, win := range per {
		out.add(win)
	}
	out.elapsed = time.Since(start)
	return out
}

// one sends the client's next request, times it from send until the
// answer is fully read, and checks the answer.
func (g *loadGen) one(mix *clientMix, win *window) {
	r := mix.next()
	kind := opPut
	var body []byte
	var u upload
	var key corpusKey
	var seen *searchSeen
	if r != nil {
		kind, body = r.kind, r.body
		if kind == opSearch {
			seen = &searchSeen{query: r.query, putsLo: g.o.putsDone()}
		}
	} else {
		var err error
		if u, key, err = g.w.puts.next(); err != nil {
			win.fail(err)
			return
		}
		body = u.body
	}
	win.attempted++
	var sp *span
	var reqID int64
	if g.tr != nil && g.tr.active.Load() {
		sp = g.tr.root(kind)
		reqID = sp.ID
	}
	method, path := http.MethodPut, "/traces"
	if r != nil {
		method, path = http.MethodPost, r.path()
	}
	t0 := time.Now()
	resp, status, err := do(g.hc, method, g.n.url+path, body, reqID)
	lat := time.Since(t0)
	if sp != nil {
		sp.Bytes = int64(len(resp))
		sp.end()
	}
	if err == nil {
		if r == nil {
			if err = g.o.checkPut(status, resp, u); err == nil {
				g.o.logPut(u.id, key)
			}
		} else {
			err = g.o.check(r, status, resp, seen)
		}
	}
	if err != nil {
		win.fail(err)
		return
	}
	win.lat[kind] = append(win.lat[kind], lat)
}

func (w *window) fail(err error) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err)
	}
}

// quantile is the nearest-rank q-quantile of ds in milliseconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / float64(time.Millisecond)
}
