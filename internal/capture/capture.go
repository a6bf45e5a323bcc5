// Package capture is the live-capture tier: a lightweight in-process
// tracer real Go programs embed to record their own execution into the
// rprism trace grammar — the role AspectJ load-time weaving plays for
// the paper's original tool, played here by explicit Enter/Exit/Emit
// hooks (go-tracey style) plus an environment-variable injection
// contract for `rprism record` (see internal/inject).
//
// Architecture: each goroutine records into its own bounded buffer,
// found by goroutine id, so hooks on different goroutines never contend
// on one lock. A buffer that fills — or a periodic flusher — hands its
// batch to the sequencer, which assigns globally consecutive entry ids
// and dense thread ids and feeds one of two sinks: disk segments in the
// trace.SegmentWriter format (§5 segmentation, crash-recoverable via
// trace.LoadSegmentsReport), or live streaming to rprism-serve's
// POST /traces/stream as NDJSON segment frames that build an append-open
// corpus session. Backpressure is blocking, not lossy: a full buffer
// flushes synchronously on the recording goroutine, so a slow sink slows
// the program instead of silently dropping events.
//
// Memory is proportional to goroutines the recorder has seen and not
// retired: goroutines started via Recorder.Go retire their state when
// they finish; any other goroutine that records and then exits (or
// returns to a pool) should call Recorder.EndThread first, or its
// per-goroutine state lives until Close.
//
// Embed it like:
//
//	rec, _ := capture.Start(capture.Options{Dir: "segs", Name: "run"})
//	defer rec.Close()
//
//	func (s *Server) Handle(req Req) {
//		exit := rec.Enter("Server.Handle/1", selfRepr, argRepr)
//		defer exit()
//		...
//	}
package capture

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/inject"
	"repro/internal/trace"
)

// Options configure a Recorder. Exactly one of Dir and ServerURL must be
// set: Dir records trace segments to disk, ServerURL streams them into a
// live rprism-serve session.
type Options struct {
	// Name is the recorded trace's name (default "capture").
	Name string
	// Dir is the directory segments are written into (disk capture).
	Dir string
	// ServerURL is the base URL of an rprism-serve instance to stream to
	// (live capture), e.g. "http://localhost:8372".
	ServerURL string
	// SegmentLimit is the number of entries per disk segment or stream
	// frame (default 4096).
	SegmentLimit int
	// RingSize bounds each goroutine's event buffer; a full buffer
	// flushes synchronously (default 256).
	RingSize int
	// FlushInterval is the period of the background flusher that drains
	// quiet goroutines' buffers so a live session stays current. Default
	// 200ms; negative disables the flusher (flushes then happen only on
	// full buffers, Flush, and Close).
	FlushInterval time.Duration
	// Client is the HTTP client for streaming (default http.DefaultClient
	// with a 30s timeout).
	Client *http.Client
	// RetryAttempts bounds how many times a stream request is tried
	// against transient failures — transport errors (connection reset)
	// and 5xx responses — before giving up (default 4). Definitive 4xx
	// rejections never retry.
	RetryAttempts int
	// RetryBackoff is the base of the jittered exponential backoff
	// between stream retries (default 100ms): the wait before try n+1 is
	// uniform in [d/2, 3d/2) with d = RetryBackoff·2ⁿ⁻¹.
	RetryBackoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = "capture"
	}
	if o.SegmentLimit <= 0 {
		o.SegmentLimit = 4096
	}
	if o.RingSize <= 0 {
		o.RingSize = 256
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = 200 * time.Millisecond
	}
	return o
}

// FromEnv builds Options from the inject environment contract. The
// boolean reports whether capture was injected at all.
func FromEnv() (Options, bool, error) {
	cfg, on, err := inject.CaptureConfigFromEnviron(os.Environ())
	if err != nil || !on {
		return Options{}, on, err
	}
	return Options{
		Name:         cfg.Name,
		Dir:          cfg.Dir,
		ServerURL:    cfg.URL,
		SegmentLimit: cfg.SegmentLimit,
	}, true, nil
}

// Summary reports what a closed recorder captured.
type Summary struct {
	// Entries is the number of trace entries recorded.
	Entries int
	// Threads is the number of distinct goroutines that recorded events.
	Threads int
	// Dir is the segment directory (disk capture).
	Dir string
	// Session is the server session id (live capture).
	Session string
	// TraceID is the content digest the server finalized the trace under
	// (live capture).
	TraceID string
	// Created reports whether the server stored new content (live
	// capture; false means the identical execution was already stored).
	Created bool
}

// Recorder is the in-process tracer. All methods are safe for concurrent
// use from any number of goroutines.
type Recorder struct {
	opts Options
	sink sink

	mu      sync.Mutex // sequencer: EID assignment + sink order
	next    trace.EntryID
	nextTID trace.ThreadID
	closed  bool
	err     error // sticky first sink error

	// done mirrors closed for lock-free hook fast paths: once Close has
	// run, Enter/Emit/Go degrade to (almost) free no-ops instead of
	// buffering events that flushShard would only discard — important
	// for woven binaries whose goroutines outlive main's Close.
	done atomic.Bool

	shards sync.Map // goroutine id (uint64) → *gshard

	// spawned tracks goroutines started via Go so Close can wait for
	// their end events: a program-level join (the fn returning) happens
	// before the recorder's own end bookkeeping, so without this a Close
	// racing the last worker would drop its end entry.
	spawned sync.WaitGroup

	stopOnce  sync.Once
	flushStop chan struct{}
	flushDone chan struct{}
}

// Start opens a recorder on the configured sink.
func Start(opts Options) (*Recorder, error) {
	opts = opts.withDefaults()
	if (opts.Dir == "") == (opts.ServerURL == "") {
		return nil, errors.New("capture: exactly one of Options.Dir and Options.ServerURL must be set")
	}
	r := &Recorder{opts: opts}
	if opts.Dir != "" {
		w, err := trace.NewSegmentWriter(opts.Dir, opts.Name, opts.SegmentLimit)
		if err != nil {
			return nil, fmt.Errorf("capture: %w", err)
		}
		r.sink = &diskSink{w: w}
	} else {
		r.sink = newStreamSink(opts)
	}
	if opts.FlushInterval > 0 {
		r.flushStop = make(chan struct{})
		r.flushDone = make(chan struct{})
		go r.flusher(opts.FlushInterval)
	}
	return r, nil
}

// StartFromEnv starts a recorder when the process was launched with
// capture injected (see `rprism record`); the boolean reports whether it
// was. Programs embed it unconditionally:
//
//	if rec, on, _ := capture.StartFromEnv(); on {
//		defer rec.Close()
//	}
func StartFromEnv() (*Recorder, bool, error) {
	opts, on, err := FromEnv()
	if err != nil || !on {
		return nil, on, err
	}
	r, err := Start(opts)
	if err != nil {
		return nil, true, err
	}
	return r, true, nil
}

// goid parses the current goroutine's id from its stack header — the
// go-tracey trick; there is no public API for it.
func goid() uint64 {
	var b [64]byte
	s := b[:runtime.Stack(b[:], false)]
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	n, _ := strconv.ParseUint(string(s), 10, 64)
	return n
}

// pendingEvent is one recorded event awaiting sequencing: the entry
// context captured at record time, minus the globally assigned ids.
type pendingEvent struct {
	method string
	self   trace.Repr
	ev     trace.Event
}

// frame is one Enter on a goroutine's shadow stack.
type frame struct {
	method string
	self   trace.Repr
}

// gshard is one goroutine's recording state: its dense thread id, its
// shadow call stack (the generic context of the grammar), its spawn
// ancestry (set for goroutines started via Go), and its bounded pending
// buffer.
type gshard struct {
	tid trace.ThreadID

	// flushMu serializes whole flushes of this shard (take + sequence):
	// without it, the background flusher and a ring-full flush could
	// each take a batch under mu but reach the sequencer in the other
	// order, emitting one goroutine's later events before its earlier
	// ones. Lock order is flushMu → mu → Recorder.mu, and record paths
	// take only mu, so the recording goroutine never blocks on a flush
	// in progress beyond the batch handoff.
	flushMu sync.Mutex

	mu      sync.Mutex
	stack   []frame
	spawn   []trace.Frame
	pending []pendingEvent
}

// context returns the current generic context: the innermost Enter'd
// method and receiver, or the thread's root context (empty) outside any.
func (g *gshard) context() (string, trace.Repr) {
	if n := len(g.stack); n > 0 {
		return g.stack[n-1].method, g.stack[n-1].self
	}
	return "", trace.Repr{}
}

// stackFrames snapshots spawn ancestry + shadow stack as trace frames,
// the S̄ of fork/end events. Caller holds g.mu.
func (g *gshard) stackFrames() []trace.Frame {
	out := append([]trace.Frame(nil), g.spawn...)
	caller := trace.Repr{}
	for _, f := range g.stack {
		out = append(out, trace.Frame{Method: f.method, Caller: caller, Callee: f.self})
		caller = f.self
	}
	return out
}

// shard returns the calling goroutine's shard, creating (and numbering)
// it on first use.
func (r *Recorder) shard() *gshard {
	id := goid()
	if g, ok := r.shards.Load(id); ok {
		return g.(*gshard)
	}
	g := r.newShard()
	if prev, loaded := r.shards.LoadOrStore(id, g); loaded {
		return prev.(*gshard) // impossible race on our own goid, but be safe
	}
	return g
}

// newShard allocates a shard with the next dense thread id.
func (r *Recorder) newShard() *gshard {
	r.mu.Lock()
	g := &gshard{tid: r.nextTID}
	r.nextTID++
	r.mu.Unlock()
	return g
}

// Enter records a method invocation — call it at the top of an
// instrumented function — and returns the exit hook to defer. The call
// event is recorded in the caller's context (the enclosing Enter, or the
// thread root) exactly as the tracing interpreter does; events recorded
// until the exit hook runs carry the entered method as their context.
//
//	exit := rec.Enter("Worker.run/1", self, arg)
//	defer exit()
//
// The exit hook records the matching return event; pass it the return
// value's representation, if any.
func (r *Recorder) Enter(method string, self trace.Repr, args ...trace.Repr) func(results ...trace.Repr) {
	if r.done.Load() {
		return noopExit
	}
	g := r.shard()
	g.mu.Lock()
	ctxMethod, ctxSelf := g.context()
	g.stack = append(g.stack, frame{method: method, self: self})
	g.pending = append(g.pending, pendingEvent{
		method: ctxMethod, self: ctxSelf,
		ev: trace.Event{Kind: trace.KindCall, Target: self, Member: method, Args: args},
	})
	full := len(g.pending) >= r.opts.RingSize
	g.mu.Unlock()
	if full {
		r.flushShard(g)
	}
	return func(results ...trace.Repr) { r.exit(g, method, self, results) }
}

// noopExit is the shared exit hook returned once the recorder is done.
var noopExit = func(...trace.Repr) {}

// exit pops the shadow stack down to (and including) the matching Enter
// and records the return event in the revealed context — tolerant of
// skipped exits (panics unwinding past deferred hooks).
func (r *Recorder) exit(g *gshard, method string, self trace.Repr, results []trace.Repr) {
	if r.done.Load() {
		return
	}
	g.mu.Lock()
	for i := len(g.stack) - 1; i >= 0; i-- {
		if g.stack[i].method == method {
			g.stack = g.stack[:i]
			break
		}
	}
	ctxMethod, ctxSelf := g.context()
	g.pending = append(g.pending, pendingEvent{
		method: ctxMethod, self: ctxSelf,
		ev: trace.Event{Kind: trace.KindReturn, Target: self, Member: method, Args: results},
	})
	full := len(g.pending) >= r.opts.RingSize
	g.mu.Unlock()
	if full {
		r.flushShard(g)
	}
}

// EndThread flushes and retires the calling goroutine's recording
// state. Goroutines started via Go retire themselves; any OTHER
// goroutine that recorded events and is about to exit (or return to a
// pool) should call EndThread, or its shard lingers in the recorder for
// the capture's lifetime — in a goroutine-per-request server that is an
// unbounded leak. A goroutine that records again after EndThread simply
// gets a fresh thread id.
func (r *Recorder) EndThread() {
	id := goid()
	g, ok := r.shards.Load(id)
	if !ok {
		return
	}
	r.shards.Delete(id)
	r.flushShard(g.(*gshard))
}

// Emit records a raw event — field reads/writes, creations, anything in
// the grammar — in the calling goroutine's current context (the
// innermost Enter'd method and receiver).
func (r *Recorder) Emit(ev trace.Event) {
	if r.done.Load() {
		return
	}
	g := r.shard()
	g.mu.Lock()
	ctxMethod, ctxSelf := g.context()
	g.pending = append(g.pending, pendingEvent{method: ctxMethod, self: ctxSelf, ev: ev})
	full := len(g.pending) >= r.opts.RingSize
	g.mu.Unlock()
	if full {
		r.flushShard(g)
	}
}

// EmitIn is Emit with an explicit context override, for producers that
// track their own call structure.
func (r *Recorder) EmitIn(method string, self trace.Repr, ev trace.Event) {
	if r.done.Load() {
		return
	}
	g := r.shard()
	g.mu.Lock()
	g.pending = append(g.pending, pendingEvent{method: method, self: self, ev: ev})
	full := len(g.pending) >= r.opts.RingSize
	g.mu.Unlock()
	if full {
		r.flushShard(g)
	}
}

// Go records a thread fork and runs fn on a new goroutine under a fresh
// thread id, with the parent's stack as spawn ancestry — the fork(S̄) /
// end(S̄) bracketing thread correlation scores spawn context with.
// Goroutines not started through Go still record fine (they get a thread
// id on first event) but carry no fork event or ancestry.
func (r *Recorder) Go(fn func()) {
	if r.done.Load() {
		// The program's goroutine must still run; only its bracketing is
		// gone, exactly as if the recorder had never been injected.
		go fn()
		return
	}
	parent := r.shard()
	child := r.newShard()
	parent.mu.Lock()
	ancestry := parent.stackFrames()
	ctxMethod, ctxSelf := parent.context()
	child.spawn = ancestry
	parent.pending = append(parent.pending, pendingEvent{
		method: ctxMethod, self: ctxSelf,
		ev: trace.Event{
			Kind:   trace.KindFork,
			Member: strconv.Itoa(int(child.tid)),
			Stack:  ancestry,
		},
	})
	full := len(parent.pending) >= r.opts.RingSize
	parent.mu.Unlock()
	if full {
		r.flushShard(parent)
	}
	r.spawned.Add(1)
	go func() {
		id := goid()
		r.shards.Store(id, child)
		defer func() {
			defer r.spawned.Done()
			child.mu.Lock()
			ctxM, ctxS := child.context()
			child.pending = append(child.pending, pendingEvent{
				method: ctxM, self: ctxS,
				ev: trace.Event{Kind: trace.KindEnd, Stack: child.spawn},
			})
			child.mu.Unlock()
			r.flushShard(child)
			r.shards.Delete(id)
		}()
		fn()
	}()
}

// flushShard sequences a shard's pending batch: under the sequencer
// lock, every event gets the next global entry id and goes to the sink
// in that order. After Close (or a sticky sink error) late events are
// discarded.
func (r *Recorder) flushShard(g *gshard) {
	g.flushMu.Lock()
	defer g.flushMu.Unlock()
	g.mu.Lock()
	batch := g.pending
	g.pending = nil
	g.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.err != nil {
		return
	}
	for i := range batch {
		p := &batch[i]
		e := trace.Entry{EID: r.next, TID: g.tid, Method: p.method, Self: p.self, Event: p.ev}
		r.next++
		if err := r.sink.append(e); err != nil {
			r.err = fmt.Errorf("capture: sink: %w", err)
			return
		}
	}
}

// flusher periodically drains every shard so buffers on quiet goroutines
// reach the sink (and a live session stays current).
func (r *Recorder) flusher(every time.Duration) {
	defer close(r.flushDone)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-r.flushStop:
			return
		case <-tick.C:
			r.flushAll()
			r.mu.Lock()
			if err := r.sink.flush(); err != nil && r.err == nil {
				r.err = fmt.Errorf("capture: sink: %w", err)
			}
			r.mu.Unlock()
		}
	}
}

func (r *Recorder) flushAll() {
	r.shards.Range(func(_, v any) bool {
		r.flushShard(v.(*gshard))
		return true
	})
}

// Flush drains every goroutine's buffer and pushes buffered sink data
// downstream (disk: the current segment stays open; stream: a segment
// frame is sent). It returns the recorder's sticky error, if any.
func (r *Recorder) Flush() error {
	r.flushAll()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	if r.closed {
		return errors.New("capture: recorder closed")
	}
	if err := r.sink.flush(); err != nil {
		r.err = fmt.Errorf("capture: sink: %w", err)
	}
	return r.err
}

// Entries reports how many entries have been sequenced so far (buffered
// events not yet flushed are not counted).
func (r *Recorder) Entries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.next)
}

// Close waits for every goroutine started via Go to finish (their end
// events are part of the trace), drains all buffers, finalizes the sink
// — closing the last disk segment, or sending the stream's close frame
// so the server finalizes the session into a content digest — and
// returns the capture summary. Events recorded after Close are
// discarded. Close is idempotent in effect but only the first call
// returns the summary of the capture.
func (r *Recorder) Close() (Summary, error) {
	r.spawned.Wait()
	if r.flushStop != nil {
		r.stopOnce.Do(func() { close(r.flushStop) })
		<-r.flushDone
	}
	r.flushAll()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return Summary{}, errors.New("capture: recorder already closed")
	}
	r.closed = true
	r.done.Store(true)
	sum := Summary{
		Entries: int(r.next),
		Threads: int(r.nextTID),
		Dir:     r.opts.Dir,
	}
	if r.err != nil {
		return sum, r.err
	}
	if err := r.sink.close(&sum); err != nil {
		return sum, fmt.Errorf("capture: sink: %w", err)
	}
	return sum, nil
}
