package capture

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/trace"
	"repro/internal/views"
)

// workload drives a recorder through a multi-goroutine run: a root
// goroutine forks workers via Go, each entering a method, emitting field
// events, and exiting. Returns the number of forked workers.
func workload(r *Recorder, workers, events int) {
	root := Obj(1, "Pool", 1)
	exitMain := r.Enter("Pool.run/0", root)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		r.Go(func() {
			defer wg.Done()
			self := Obj(int64(10+w), "Worker", w+1)
			exit := r.Enter("Worker.work/1", self, trace.PrimRepr("Int", fmt.Sprint(w)))
			for i := 0; i < events; i++ {
				r.Emit(trace.Event{Kind: trace.KindGet, Target: self, Member: "state",
					Args: []trace.Repr{trace.PrimRepr("Int", fmt.Sprint(i))}})
			}
			exit(trace.PrimRepr("Int", fmt.Sprint(w*events)))
		})
	}
	wg.Wait()
	exitMain()
}

// Obj/Val mirror the public shim's helpers without importing it (the
// shim imports this package).
func Obj(loc int64, class string, seq int) trace.Repr {
	return trace.Repr{Loc: trace.Loc(loc), Class: class, Seq: seq}
}

func TestDiskCaptureMultiGoroutine(t *testing.T) {
	dir := t.TempDir()
	r, err := Start(Options{Dir: dir, Name: "run", SegmentLimit: 64, RingSize: 16, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	const workers, events = 4, 40
	workload(r, workers, events)
	sum, err := r.Close()
	if err != nil {
		t.Fatal(err)
	}
	// main enter/exit + per worker (fork + enter + events + exit + end)
	want := 2 + workers*(events+4)
	if sum.Entries != want {
		t.Errorf("summary reports %d entries, want %d", sum.Entries, want)
	}
	if sum.Threads != workers+1 {
		t.Errorf("summary reports %d threads, want %d", sum.Threads, workers+1)
	}

	tr, err := trace.LoadSegments(dir, "run")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != want {
		t.Fatalf("reassembled %d entries, want %d", tr.Len(), want)
	}
	for i, e := range tr.Entries {
		if int(e.EID) != i {
			t.Fatalf("entry %d has eid %d: ids not dense", i, e.EID)
		}
	}
	if got := len(tr.ThreadIDs()); got != workers+1 {
		t.Errorf("trace has %d threads, want %d", got, workers+1)
	}

	// Grammar structure: one fork per worker (with ancestry), one end per
	// worker, balanced call/return.
	var forks, ends, calls, returns int
	for _, e := range tr.Entries {
		switch e.Event.Kind {
		case trace.KindFork:
			forks++
			if len(e.Event.Stack) == 0 {
				t.Error("fork event carries no spawn ancestry")
			}
			if e.Method != "Pool.run/0" {
				t.Errorf("fork recorded in context %q, want Pool.run/0", e.Method)
			}
		case trace.KindEnd:
			ends++
		case trace.KindCall:
			calls++
		case trace.KindReturn:
			returns++
		}
	}
	if forks != workers || ends != workers {
		t.Errorf("forks=%d ends=%d, want %d each", forks, ends, workers)
	}
	if calls != returns || calls != workers+1 {
		t.Errorf("calls=%d returns=%d, want %d each", calls, returns, workers+1)
	}

	// The captured trace feeds the standard pipeline: a web builds and
	// has the thread/method/object views the workload implies.
	web := views.Build(tr)
	c := web.Count()
	if c.Thread != workers+1 {
		t.Errorf("web has %d thread views, want %d", c.Thread, workers+1)
	}
	if c.Method < 2 {
		t.Errorf("web has %d method views, want >= 2", c.Method)
	}
}

// TestEndThreadFlushesAndRetires drives EndThread as a goroutine-pool
// embedder would: a plain goroutine (not started via Go) records, ends
// its thread, and records again. EndThread flushes the buffered events
// in order and drops the shard; the later recording is a fresh thread.
func TestEndThreadFlushesAndRetires(t *testing.T) {
	dir := t.TempDir()
	r, err := Start(Options{Dir: dir, Name: "pool", RingSize: 64, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	self := Obj(1, "Worker", 1)
	emit := func(i int) {
		r.Emit(trace.Event{Kind: trace.KindGet, Target: self, Member: "state",
			Args: []trace.Repr{trace.PrimRepr("Int", fmt.Sprint(i))}})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		id := goid()
		for i := range 3 {
			emit(i)
		}
		r.EndThread()
		if _, ok := r.shards.Load(id); ok {
			t.Error("shard still held after EndThread")
		}
		// RingSize 64 buffered all three: only EndThread's flush could
		// have sequenced them.
		r.mu.Lock()
		flushed := r.next
		r.mu.Unlock()
		if flushed != 3 {
			t.Errorf("EndThread flushed %d entries, want 3", flushed)
		}
		emit(3)
		r.EndThread()
		if _, ok := r.shards.Load(id); ok {
			t.Error("shard of the second recording still held after EndThread")
		}
	}()
	<-done
	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.LoadSegments(dir, "pool")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 4 {
		t.Fatalf("recorded %d entries, want 4", tr.Len())
	}
	for i, e := range tr.Entries {
		if got, want := e.Event.Args[0].Str, trace.PrimRepr("Int", fmt.Sprint(i)).Str; got != want {
			t.Errorf("entry %d carries %s: events out of order", i, got)
		}
		if i > 0 && i < 3 && e.TID != tr.Entries[0].TID {
			t.Errorf("entry %d on thread %d, want %d", i, e.TID, tr.Entries[0].TID)
		}
	}
	if tr.Entries[3].TID == tr.Entries[0].TID {
		t.Errorf("recording after EndThread reused thread id %d", tr.Entries[0].TID)
	}
}

func TestCaptureContextNesting(t *testing.T) {
	// The generic context follows the interpreter's convention: calls and
	// returns are recorded in the caller's context, inner events in the
	// callee's.
	dir := t.TempDir()
	r, err := Start(Options{Dir: dir, Name: "nest", FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := Obj(1, "A", 1), Obj(2, "B", 1)
	exitA := r.Enter("A.outer/0", a)
	exitB := r.Enter("B.inner/0", b)
	r.Emit(trace.Event{Kind: trace.KindSet, Target: b, Member: "f", Args: []trace.Repr{trace.PrimRepr("Int", "1")}})
	exitB()
	exitA()
	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.LoadSegments(dir, "nest")
	if err != nil {
		t.Fatal(err)
	}
	wantCtx := []string{
		"",          // call A.outer, root context
		"A.outer/0", // call B.inner, recorded in A
		"B.inner/0", // the set, recorded in B
		"A.outer/0", // return B.inner, recorded back in A
		"",          // return A.outer, root context
	}
	if tr.Len() != len(wantCtx) {
		t.Fatalf("recorded %d entries, want %d", tr.Len(), len(wantCtx))
	}
	for i, want := range wantCtx {
		if tr.Entries[i].Method != want {
			t.Errorf("entry %d context %q, want %q", i, tr.Entries[i].Method, want)
		}
	}
}

func TestCaptureStartValidation(t *testing.T) {
	if _, err := Start(Options{}); err == nil {
		t.Error("Start accepted empty options (no sink)")
	}
	if _, err := Start(Options{Dir: "x", ServerURL: "http://h"}); err == nil {
		t.Error("Start accepted two sinks")
	}
}

func TestStartFromEnv(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("RPRISM_CAPTURE_DIR", dir)
	t.Setenv("RPRISM_CAPTURE_NAME", "envrun")
	t.Setenv("RPRISM_CAPTURE_SEGMENT", "128")
	r, on, err := StartFromEnv()
	if err != nil || !on {
		t.Fatalf("StartFromEnv: on=%v err=%v", on, err)
	}
	exit := r.Enter("M.m/0", Obj(1, "M", 1))
	exit()
	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if tr, err := trace.LoadSegments(dir, "envrun"); err != nil || tr.Len() != 2 {
		t.Fatalf("env-injected capture: %v (len %v)", err, tr.Len())
	}
}

func TestStartFromEnvDisabled(t *testing.T) {
	t.Setenv("RPRISM_CAPTURE_DIR", "")
	t.Setenv("RPRISM_CAPTURE_URL", "")
	if _, on, err := StartFromEnv(); on || err != nil {
		t.Fatalf("capture unexpectedly enabled: on=%v err=%v", on, err)
	}
}

// fakeStreamServer implements just enough of POST /traces/stream to test
// the client sink: frame decoding, EID-idempotent appends, session
// continuity, and close acks. failFirst injects one transport failure
// per marked attempt to exercise the retry path.
type fakeStreamServer struct {
	mu       sync.Mutex
	dec      trace.WireDecoder
	entries  []trace.Entry
	session  string
	requests int
	fail     atomic.Int32 // remaining requests to fail with a 500
}

func (f *fakeStreamServer) handler(t *testing.T) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.requests++
		if f.fail.Load() > 0 {
			f.fail.Add(-1)
			http.Error(w, `{"error":{"code":"internal","message":"injected"}}`, http.StatusInternalServerError)
			return
		}
		dec := json.NewDecoder(r.Body)
		var closed bool
		for {
			var fr StreamFrame
			if err := dec.Decode(&fr); err != nil {
				break
			}
			switch fr.Frame {
			case FrameOpen:
				if f.session == "" {
					f.session = "live-test"
				} else if fr.Session != "" && fr.Session != f.session {
					t.Errorf("client switched session: %q -> %q", f.session, fr.Session)
				}
			case FrameSegment:
				entries, err := f.dec.Segment(trace.WireSegment{Symbols: fr.Symbols, Entries: fr.Entries})
				if err != nil {
					t.Errorf("segment decode: %v", err)
					return
				}
				for _, e := range entries {
					if int(e.EID) < len(f.entries) {
						continue // idempotent re-delivery
					}
					if int(e.EID) != len(f.entries) {
						t.Errorf("gap: got eid %d, have %d", e.EID, len(f.entries))
						return
					}
					f.entries = append(f.entries, e)
				}
			case FrameClose:
				closed = true
			}
		}
		ack := StreamAck{Session: f.session, Entries: len(f.entries)}
		if closed {
			tr := &trace.Trace{Name: "t", Entries: f.entries}
			ack.Trace = &StreamTraceInfo{ID: tr.ComputeDigest().String(), Name: "t", Entries: len(f.entries), Created: true}
		}
		json.NewEncoder(w).Encode(ack)
	}
}

func TestStreamCaptureWithRetries(t *testing.T) {
	fake := &fakeStreamServer{}
	srv := httptest.NewServer(fake.handler(t))
	defer srv.Close()

	r, err := Start(Options{ServerURL: srv.URL, Name: "live", SegmentLimit: 32, RingSize: 8, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	const workers, events = 3, 30
	workload(r, workers, events)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	fake.fail.Store(1) // next request 500s once; the sink must retry
	sum, err := r.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 + workers*(events+4)
	if len(fake.entries) != want {
		t.Fatalf("server holds %d entries, want %d", len(fake.entries), want)
	}
	if sum.Session != "live-test" || sum.TraceID == "" || !sum.Created {
		t.Errorf("summary not populated from close ack: %+v", sum)
	}
	// The digest the server computed matches a local batch rebuild of the
	// streamed entries.
	local := &trace.Trace{Name: "live", Entries: fake.entries}
	if got := local.ComputeDigest().String(); got != sum.TraceID {
		t.Errorf("digest mismatch: server %s, local %s", sum.TraceID, got)
	}
}

func TestStreamTraceHelper(t *testing.T) {
	fake := &fakeStreamServer{}
	srv := httptest.NewServer(fake.handler(t))
	defer srv.Close()

	src := trace.New("attach")
	for i := 0; i < 100; i++ {
		obj := trace.Repr{Loc: trace.Loc(1 + i%7), Class: "N", Seq: 1 + i%7}
		src.Append(trace.ThreadID(i%2), "N.m/0", obj,
			trace.Event{Kind: trace.KindCall, Target: obj, Member: "N.m/0"})
	}
	ack, err := StreamTrace(context.Background(), srv.URL, src, 33, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Trace == nil || ack.Entries != 100 {
		t.Fatalf("ack: %+v", ack)
	}
	if want := src.ComputeDigest().String(); ack.Trace.ID != want {
		t.Errorf("streamed digest %s, want %s", ack.Trace.ID, want)
	}
	if fake.requests < 4 { // 4 segment posts + 1 close
		t.Errorf("expected batched requests, saw %d", fake.requests)
	}
}
