package sentinel

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/regression"
	"repro/internal/trace"
)

// fixture builds a deterministic multi-thread, multi-view trace.
func fixture(n, threads int) *trace.Trace {
	t := trace.New("fix")
	for i := 0; i < n; i++ {
		obj := trace.Repr{Loc: trace.Loc(1 + i%7), Class: "Node", Seq: 1 + i%7}
		t.Append(trace.ThreadID(i%threads), fmt.Sprintf("C.m%d/0", i%4), obj,
			trace.Event{Kind: trace.KindCall, Target: obj, Member: fmt.Sprintf("C.m%d/0", (i+1)%4),
				Args: []trace.Repr{trace.PrimRepr("Int", fmt.Sprint(i%11))}})
	}
	return t
}

// watchFixture stores a baseline, opens a live session, and attaches a
// watch to it.
func watchFixture(t *testing.T, opts Options, spec func(*Spec)) (*Monitor, *corpus.Store, *corpus.Session, *Watch, *trace.Trace) {
	t.Helper()
	store, err := corpus.New(t.TempDir(), corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := fixture(240, 3)
	dig, _, err := store.Put(base)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := store.ViewsCtx(context.Background(), dig)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := store.OpenSession("live")
	if err != nil {
		t.Fatal(err)
	}
	if opts.Debounce == 0 {
		opts.Debounce = -1 // tests want immediate evaluations
	}
	m := New(opts)
	t.Cleanup(m.Close)
	s := Spec{Session: sess, Baseline: wl, BaselineDigest: dig}
	if spec != nil {
		spec(&s)
	}
	w, err := m.Attach(s)
	if err != nil {
		t.Fatal(err)
	}
	return m, store, sess, w, base
}

// waitKind blocks until the watch emits an event of the given kind.
func waitKind(t *testing.T, w *Watch, kind EventKind) Event {
	t.Helper()
	sig, cancel := w.Notify()
	defer cancel()
	deadline := time.After(5 * time.Second)
	after := uint64(0)
	for {
		evs, _ := w.EventsSince(after)
		for _, ev := range evs {
			after = ev.Seq
			if ev.Kind == kind {
				return ev
			}
		}
		select {
		case <-sig:
		case <-deadline:
			t.Fatalf("timed out waiting for %s event (have %v)", kind, evs)
		}
	}
}

func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutine leak: %d running, baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}

// TestWatchDivergenceAndControl is the core sentinel contract: a session
// replaying its baseline verbatim never alarms; a session that inserts
// novel events raises exactly one divergence event, within one appended
// segment of the first divergent entry.
func TestWatchDivergenceAndControl(t *testing.T) {
	// Control: clean replay, segment by segment, then clean close.
	m, _, sess, w, base := watchFixture(t, Options{}, nil)
	for lo := 0; lo < base.Len(); lo += 60 {
		hi := lo + 60
		if hi > base.Len() {
			hi = base.Len()
		}
		if _, err := sess.Append(base.Entries[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	closed := waitKind(t, w, EventWatchClosed)
	all, _ := w.EventsSince(0)
	for _, ev := range all {
		if ev.Kind == EventDivergence {
			t.Fatalf("control session raised a divergence event: %+v", ev)
		}
	}
	if got := m.Counters().Divergences.Load(); got != 0 {
		t.Fatalf("control: divergence counter = %d", got)
	}
	if closed.Reason == "" {
		t.Fatal("terminal event carries no reason")
	}
	<-w.Done() // terminal event precedes removal; Done closes after it
	if m.WatchCount() != 0 {
		t.Fatalf("closed watch still attached: %d", m.WatchCount())
	}

	// Divergence: replay a prefix, then a segment with novel calls.
	m2, _, sess2, w2, base2 := watchFixture(t, Options{}, nil)
	if _, err := sess2.Append(base2.Entries[:120]); err != nil {
		t.Fatal(err)
	}
	divergent := trace.New("live")
	for _, e := range base2.Entries[:120] {
		divergent.Append(e.TID, e.Method, e.Self, e.Event)
	}
	novel := trace.Repr{Loc: trace.Loc(500), Class: "Bug", Seq: 9}
	for k := 0; k < 12; k++ {
		divergent.Append(0, "Bug.trip/0", novel,
			trace.Event{Kind: trace.KindCall, Target: novel, Member: "Bug.trip/0"})
	}
	if _, err := sess2.Append(divergent.Entries[120:]); err != nil {
		t.Fatal(err)
	}
	ev := waitKind(t, w2, EventDivergence)
	if ev.SessionID != sess2.ID() {
		t.Fatalf("event session = %q, want %q", ev.SessionID, sess2.ID())
	}
	if ev.Baseline == "" {
		t.Fatal("event carries no baseline digest")
	}
	if ev.Candidates == 0 || len(ev.Summary) == 0 {
		t.Fatalf("event carries no candidates: %+v", ev)
	}
	if ev.Watermark != trace.EntryID(divergent.Len()-1) {
		t.Fatalf("watermark = %d, want %d", ev.Watermark, divergent.Len()-1)
	}
	if info := w2.Info(); !info.Diverged {
		t.Fatalf("watch info not diverged: %+v", info)
	}
	if got := m2.Counters().Divergences.Load(); got != 1 {
		t.Fatalf("divergence counter = %d, want 1", got)
	}
	// More appends after divergence must not re-alarm (edge-triggered).
	for k := 0; k < 5; k++ {
		divergent.Append(0, "Bug.trip/0", novel,
			trace.Event{Kind: trace.KindCall, Target: novel, Member: "Bug.trip/0"})
	}
	if _, err := sess2.Append(divergent.Entries[132:]); err != nil {
		t.Fatal(err)
	}
	sess2.Abort()
	waitKind(t, w2, EventWatchClosed)
	n := 0
	all2, _ := w2.EventsSince(0)
	for _, e := range all2 {
		if e.Kind == EventDivergence {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("got %d divergence events, want exactly 1", n)
	}
}

// TestWatchExpectedSignaturesSuppress pins the D = (A − B) ∩ C
// subtraction: right-side differences whose signature matches the
// expected change do not alarm.
func TestWatchExpectedSignaturesSuppress(t *testing.T) {
	novel := trace.Repr{Loc: trace.Loc(501), Class: "Feature", Seq: 3}
	mkEntry := func() (trace.ThreadID, string, trace.Repr, trace.Event) {
		return 0, "Feature.new/0", novel,
			trace.Event{Kind: trace.KindCall, Target: novel, Member: "Feature.new/0"}
	}
	tid, meth, self, evt := mkEntry()
	probe := trace.New("probe")
	probe.Append(tid, meth, self, evt)
	expected := map[regression.Signature]bool{
		regression.EntrySignature(probe.Entries[0]): true,
	}

	_, _, sess, w, base := watchFixture(t, Options{}, func(s *Spec) {
		s.Expected = expected
	})
	live := trace.New("live")
	for _, e := range base.Entries[:100] {
		live.Append(e.TID, e.Method, e.Self, e.Event)
	}
	for k := 0; k < 10; k++ {
		live.Append(tid, meth, self, evt)
	}
	if _, err := sess.Append(live.Entries); err != nil {
		t.Fatal(err)
	}
	sess.Abort()
	waitKind(t, w, EventWatchClosed)
	all, _ := w.EventsSince(0)
	for _, ev := range all {
		if ev.Kind == EventDivergence {
			t.Fatalf("expected-change difference raised an alarm: %+v", ev)
		}
	}
}

// TestWatchDetachAndSessionDeleteLeakFree is the graceful-detach
// satellite: detaching a watch, and deleting (aborting) a watched
// session, both emit a terminal watch-closed event, cancel the loop,
// and leak no goroutines.
func TestWatchDetachAndSessionDeleteLeakFree(t *testing.T) {
	baseline := runtime.NumGoroutine()

	m, _, sess, w, base := watchFixture(t, Options{}, nil)
	if _, err := sess.Append(base.Entries[:50]); err != nil {
		t.Fatal(err)
	}
	if !m.Detach(w.ID()) {
		t.Fatal("Detach reported unknown watch")
	}
	ev := waitKind(t, w, EventWatchClosed)
	if ev.Reason != reasonDetached {
		t.Fatalf("reason = %q, want %q", ev.Reason, reasonDetached)
	}
	<-w.Done()
	if _, ok := m.Get(w.ID()); ok {
		t.Fatal("detached watch still resolvable")
	}
	if m.Detach(w.ID()) {
		t.Fatal("second Detach reported success")
	}
	// The session outlives the watch.
	if _, err := sess.Append(base.Entries[50:100]); err != nil {
		t.Fatal(err)
	}
	sess.Abort()

	// Session deleted (DELETE /sessions/{id} calls Abort) with a watch
	// attached: terminal event, loop gone.
	m2, _, sess2, w2, base2 := watchFixture(t, Options{}, nil)
	if _, err := sess2.Append(base2.Entries[:30]); err != nil {
		t.Fatal(err)
	}
	sess2.Abort()
	ev = waitKind(t, w2, EventWatchClosed)
	if ev.Reason != "session aborted" {
		t.Fatalf("reason = %q, want session aborted", ev.Reason)
	}
	<-w2.Done()

	m.Close()
	m2.Close()
	awaitGoroutines(t, baseline)
}

// TestWebhookRetryDelivers pins the at-least-once webhook contract
// under the shared retry policy: a flaky endpoint that fails twice with
// 500 still receives the divergence event once, a 4xx rejection is
// permanent (one call, one failure), and an endpoint that always fails
// gets WebhookAttempts calls before the event counts as failed.
func TestWebhookRetryDelivers(t *testing.T) {
	const attempts = 3
	for _, tc := range []struct {
		name          string
		status        func(call int64) int
		wantCalls     int64
		wantDelivered int64
		wantFailed    int64
	}{
		{name: "500 500 204", wantCalls: 3, wantDelivered: 1,
			status: func(call int64) int {
				if call <= 2 {
					return http.StatusInternalServerError
				}
				return http.StatusNoContent
			}},
		{name: "400 is permanent", wantCalls: 1, wantFailed: 1,
			status: func(int64) int { return http.StatusBadRequest }},
		{name: "always 500", wantCalls: attempts, wantFailed: 1,
			status: func(int64) int { return http.StatusInternalServerError }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				rw.WriteHeader(tc.status(calls.Add(1)))
			}))
			defer srv.Close()

			m, _, sess, w, base := watchFixture(t,
				Options{WebhookAttempts: attempts, WebhookBackoff: time.Millisecond},
				func(s *Spec) { s.Webhook = srv.URL })
			live := trace.New("live")
			for _, e := range base.Entries[:80] {
				live.Append(e.TID, e.Method, e.Self, e.Event)
			}
			novel := trace.Repr{Loc: trace.Loc(502), Class: "Bug", Seq: 1}
			for k := 0; k < 8; k++ {
				live.Append(1, "Bug.trip/0", novel,
					trace.Event{Kind: trace.KindCall, Target: novel, Member: "Bug.trip/0"})
			}
			if _, err := sess.Append(live.Entries); err != nil {
				t.Fatal(err)
			}
			waitKind(t, w, EventDivergence)

			// Wait on the monitor's counters, not the handler's calls: the
			// handler may have answered while the delivery goroutine is
			// still reading the response, and Close cancels in-flight
			// requests.
			c := m.Counters()
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) && c.WebhookDeliveries.Load()+c.WebhookFailures.Load() == 0 {
				time.Sleep(2 * time.Millisecond)
			}
			sess.Abort()
			waitKind(t, w, EventWatchClosed)
			m.Close() // waits for the delivery goroutine
			if got := calls.Load(); got != tc.wantCalls {
				t.Errorf("webhook called %d times, want %d", got, tc.wantCalls)
			}
			if got := c.WebhookDeliveries.Load(); got != tc.wantDelivered {
				t.Errorf("delivery counter = %d, want %d", got, tc.wantDelivered)
			}
			if got := c.WebhookFailures.Load(); got != tc.wantFailed {
				t.Errorf("failure counter = %d, want %d", got, tc.wantFailed)
			}
		})
	}
}
