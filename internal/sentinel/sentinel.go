// Package sentinel is the always-on regression monitor: it attaches
// watches to append-open corpus sessions and re-diffs them against a
// pinned baseline on every appended segment, incrementally (only
// thread pairs whose inputs grew are recomputed — see diff.Incremental)
// and event-driven (Session.Subscribe, no polling). The first non-empty
// candidate set D = right-side differences minus the expected-change
// signatures raises a structured DivergenceEvent, fanned out to
// per-watch SSE subscribers, an optional webhook, and the watch's
// in-memory event list.
package sentinel

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/diff"
	"repro/internal/metrics"
	"repro/internal/regression"
	"repro/internal/trace"
	"repro/internal/views"
)

// ErrMonitorClosed reports an Attach on a shut-down monitor.
var ErrMonitorClosed = errors.New("sentinel: monitor closed")

// Options configure a Monitor.
type Options struct {
	// Debounce is the quiet period after an append before a watch
	// evaluates; further appends landing inside the window are coalesced
	// into the same evaluation. 0 means DefaultDebounce; negative
	// disables debouncing (tests).
	Debounce time.Duration
	// Acquire gates each evaluation on an external worker budget (the
	// engine's request pool): it blocks until a slot is free and returns
	// its release. nil means unbounded.
	Acquire func(ctx context.Context) (release func(), err error)
	// WebhookClient posts divergence events; nil uses a client with a
	// 10-second timeout.
	WebhookClient *http.Client
	// WebhookAttempts bounds delivery tries per event; WebhookBackoff is
	// the base of the jittered exponential backoff between tries. Zero
	// values take retry.Policy's defaults.
	WebhookAttempts int
	WebhookBackoff  time.Duration
}

// DefaultDebounce is the Debounce an Options zero value takes.
const DefaultDebounce = 20 * time.Millisecond

// Spec describes one watch: which live session to monitor, against
// which pinned baseline, and where to deliver divergence events.
type Spec struct {
	Session *corpus.Session
	// Baseline is the pinned left-hand web; BaselineDigest its content
	// digest (zero when the baseline is not corpus-addressable).
	Baseline       *views.Web
	BaselineDigest trace.Digest
	// Expected are the B-side signatures of an expected change (the
	// paper's diff(old-input₂, new-input₂)): right-side differences
	// whose signature appears here are subtracted from the candidate
	// set, mirroring D = (A − B) ∩ C. nil means every right-side
	// difference is a candidate.
	Expected map[regression.Signature]bool
	// Webhook, when non-empty, receives every divergence event as a
	// JSON POST with at-least-once retry semantics.
	Webhook string
	// DiffOpts are the differencing tunables (zero values take the
	// usual defaults).
	DiffOpts diff.ViewOptions
	// Width, when set, resolves each evaluation's diff width from
	// DiffOpts.Parallelism once the evaluation holds its Acquire slot
	// (the engine caps it by the worker slots free at that moment). nil
	// evaluates at DiffOpts.Parallelism.
	Width func(requested int) int
}

// Monitor owns the attached watches. It is safe for concurrent use.
type Monitor struct {
	opts     Options
	counters *metrics.SentinelCounters
	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup

	mu      sync.Mutex
	watches map[string]*Watch
	seq     int
	closed  bool
}

// New creates a monitor.
func New(opts Options) *Monitor {
	if opts.Debounce == 0 {
		opts.Debounce = DefaultDebounce
	}
	if opts.WebhookClient == nil {
		opts.WebhookClient = &http.Client{Timeout: 10 * time.Second}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Monitor{
		opts:     opts,
		counters: &metrics.SentinelCounters{},
		ctx:      ctx,
		cancel:   cancel,
		watches:  make(map[string]*Watch),
	}
}

// Counters returns the monitor's metrics.
func (m *Monitor) Counters() *metrics.SentinelCounters { return m.counters }

// WatchCount returns the number of currently attached watches.
func (m *Monitor) WatchCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.watches)
}

// Attach creates a watch and starts its evaluation loop. The session's
// current contents are evaluated immediately (a session may already be
// diverged when the watch arrives), then re-evaluated on every append
// until the session ends or the watch is detached.
func (m *Monitor) Attach(spec Spec) (*Watch, error) {
	if spec.Session == nil {
		return nil, errors.New("sentinel: spec needs a session")
	}
	if spec.Baseline == nil {
		return nil, errors.New("sentinel: spec needs a baseline web")
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrMonitorClosed
	}
	m.seq++
	id := fmt.Sprintf("w%d", m.seq)
	ctx, cancel := context.WithCancel(m.ctx)
	w := &Watch{
		id:     id,
		m:      m,
		spec:   spec,
		inc:    diff.NewIncremental(spec.Baseline, spec.DiffOpts),
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	m.watches[id] = w
	m.wg.Add(1)
	m.mu.Unlock()
	m.counters.WatchesOpened.Add(1)

	events, cancelSub := spec.Session.Subscribe()
	go func() {
		defer m.wg.Done()
		defer cancelSub()
		w.run(events)
	}()
	return w, nil
}

// Get resolves an attached watch by id. Watches leave the map when
// their loop ends (session over or detached).
func (m *Monitor) Get(id string) (*Watch, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.watches[id]
	return w, ok
}

// List summarizes the attached watches, sorted by id.
func (m *Monitor) List() []Info {
	m.mu.Lock()
	watches := make([]*Watch, 0, len(m.watches))
	for _, w := range m.watches {
		watches = append(watches, w)
	}
	m.mu.Unlock()
	out := make([]Info, len(watches))
	for i, w := range watches {
		out[i] = w.Info()
	}
	sortInfos(out)
	return out
}

// Detach cancels a watch: its in-flight evaluation unwinds, a terminal
// watch-closed event is emitted, and the watch leaves the monitor. It
// reports whether the id was attached.
func (m *Monitor) Detach(id string) bool {
	m.mu.Lock()
	w, ok := m.watches[id]
	m.mu.Unlock()
	if !ok {
		return false
	}
	w.cancel()
	return true
}

// Close detaches every watch and waits for all loops and pending
// webhook deliveries to finish. No goroutines outlive it.
func (m *Monitor) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
}

// finish removes a watch whose loop ended.
func (m *Monitor) finish(w *Watch) {
	m.mu.Lock()
	delete(m.watches, w.id)
	m.mu.Unlock()
	m.counters.WatchesClosed.Add(1)
}

// Info summarizes one watch.
type Info struct {
	ID          string `json:"id"`
	Session     string `json:"session"`
	Baseline    string `json:"baseline,omitempty"`
	Webhook     string `json:"webhook,omitempty"`
	Diverged    bool   `json:"diverged"`
	Closed      bool   `json:"closed"`
	CloseReason string `json:"close_reason,omitempty"`
	Entries     int    `json:"entries"`
	Events      uint64 `json:"events"`
	Evaluations int64  `json:"evaluations"`
	LastDirty   int    `json:"last_dirty_pairs"`
	LastPairs   int    `json:"last_pairs"`
	LastWidth   int    `json:"last_width"`
}

// Watch is one attached session monitor. Its exported methods are safe
// for concurrent use; evaluation runs on the watch's own loop.
type Watch struct {
	id     string
	m      *Monitor
	spec   Spec
	inc    *diff.Incremental
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	events    []Event // every event emitted, in Seq order
	nextSeq   uint64
	subs      map[int]chan struct{}
	nextSub   int
	diverged  bool
	closed    bool
	reason    string
	evals     int64
	lastStats diff.IncrementalStats
	entries   int
}

// ID returns the watch id.
func (w *Watch) ID() string { return w.id }

// Done is closed when the watch's loop has ended (terminal event
// emitted, watch removed from the monitor).
func (w *Watch) Done() <-chan struct{} { return w.done }

// Info summarizes the watch.
func (w *Watch) Info() Info {
	w.mu.Lock()
	defer w.mu.Unlock()
	info := Info{
		ID:          w.id,
		Session:     w.spec.Session.ID(),
		Webhook:     w.spec.Webhook,
		Diverged:    w.diverged,
		Closed:      w.closed,
		CloseReason: w.reason,
		Entries:     w.entries,
		Events:      w.nextSeq,
		Evaluations: w.evals,
		LastDirty:   w.lastStats.Dirty,
		LastPairs:   w.lastStats.Pairs,
		LastWidth:   w.lastStats.Width,
	}
	if !w.spec.BaselineDigest.IsZero() {
		info.Baseline = w.spec.BaselineDigest.String()
	}
	return info
}

const reasonDetached = "watch detached"

// run is the watch loop: level-triggered on session events, debounced,
// one evaluation at a time. It ends — always emitting a terminal
// watch-closed event — when the session closes or aborts, the watch is
// detached, or an evaluation fails.
func (w *Watch) run(events <-chan corpus.SessionEvent) {
	defer close(w.done)
	defer w.m.finish(w)
	// The session may already hold entries (or already be diverged):
	// evaluate the backlog before waiting for the first append.
	pending := true
	for {
		if pending {
			if d := w.m.opts.Debounce; d > 0 {
				timer := time.NewTimer(d)
				if stop := w.absorb(events, timer); stop {
					timer.Stop()
					return
				}
			}
			if err := w.evaluate(); err != nil {
				if w.ctx.Err() != nil {
					w.emitClosed(reasonDetached)
				} else {
					w.emitClosed("evaluation failed: " + err.Error())
				}
				return
			}
			pending = false
			continue
		}
		select {
		case <-w.ctx.Done():
			w.emitClosed(reasonDetached)
			return
		case ev, ok := <-events:
			if !ok || ev.Terminal() {
				w.terminal(ev, ok)
				return
			}
			pending = true
		}
	}
}

// absorb waits out the debounce window, coalescing appends that land
// inside it. It returns true when the loop must stop (detach or
// terminal session event, both fully handled here).
func (w *Watch) absorb(events <-chan corpus.SessionEvent, timer *time.Timer) bool {
	for {
		select {
		case <-w.ctx.Done():
			w.emitClosed(reasonDetached)
			return true
		case ev, ok := <-events:
			if !ok || ev.Terminal() {
				w.terminal(ev, ok)
				return true
			}
			w.m.counters.Coalesced.Add(1)
		case <-timer.C:
			return false
		}
	}
}

// terminal handles the end of the session. A cleanly closed session
// gets one final evaluation first — the finishing segment may carry the
// divergence — then the terminal watch-closed event.
func (w *Watch) terminal(ev corpus.SessionEvent, ok bool) {
	if ok && ev.Closed {
		if err := w.evaluate(); err != nil && w.ctx.Err() != nil {
			w.emitClosed(reasonDetached)
			return
		}
		w.emitClosed("session closed: " + ev.Digest.String())
		return
	}
	w.emitClosed("session aborted")
}

// evaluate re-diffs the session snapshot against the baseline through
// the incremental cache and raises the divergence event on the first
// non-empty candidate set. Divergence is edge-triggered and sticky: one
// event per watch, at the first evaluation whose D is non-empty.
func (w *Watch) evaluate() error {
	if acq := w.m.opts.Acquire; acq != nil {
		release, err := acq(w.ctx)
		if err != nil {
			return err
		}
		defer release()
	}
	par := w.spec.DiffOpts.Parallelism
	if w.spec.Width != nil {
		par = w.spec.Width(par)
	}
	web := w.spec.Session.Web()
	res, st, err := w.inc.Rediff(w.ctx, web, par)
	if err != nil {
		return err
	}
	c := w.m.counters
	c.Evaluations.Add(1)
	c.DirtyPairs.Add(int64(st.Dirty))
	c.TotalPairs.Add(int64(st.Pairs))

	w.mu.Lock()
	w.evals++
	w.lastStats = st
	w.entries = web.Trace.Len()
	already := w.diverged
	w.mu.Unlock()
	if already {
		return nil
	}
	cands := w.candidates(res)
	if len(cands) == 0 {
		return nil
	}
	w.mu.Lock()
	w.diverged = true
	w.mu.Unlock()
	c.Divergences.Add(1)
	ev := w.append(Event{
		Kind:       EventDivergence,
		Entries:    web.Trace.Len(),
		Watermark:  trace.EntryID(web.Trace.Len() - 1),
		Candidates: len(cands),
		Summary:    summarize(res.Right, cands, maxSummary),
	})
	if w.spec.Webhook != "" {
		w.m.deliverWebhook(w.spec.Webhook, ev)
	}
	return nil
}

// candidates computes D for this evaluation: the right-side (live)
// differences, minus differences whose signature matches the expected
// change. The un-executed tail of the baseline lands in DiffLeft and is
// deliberately ignored — a live session is a prefix of its baseline
// until it finishes, and "the baseline did more" must not alarm.
func (w *Watch) candidates(res *diff.Result) []trace.EntryID {
	if len(res.DiffRight) == 0 || w.spec.Expected == nil {
		return res.DiffRight
	}
	var out []trace.EntryID
	for _, eid := range res.DiffRight {
		if !w.spec.Expected[regression.EntrySignature(res.Right.Entries[eid])] {
			out = append(out, eid)
		}
	}
	return out
}
