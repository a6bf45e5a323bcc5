package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	rprism "repro"
	"repro/internal/sentinel"
	"repro/internal/trace"
)

// watchTrace builds a deterministic multi-thread trace for watch tests.
func watchTrace(n, threads int) *trace.Trace {
	tr := trace.New("watchfix")
	for i := 0; i < n; i++ {
		obj := trace.Repr{Loc: trace.Loc(1 + i%7), Class: "Node", Seq: 1 + i%7}
		tr.Append(trace.ThreadID(i%threads), fmt.Sprintf("C.m%d/0", i%4), obj,
			trace.Event{Kind: trace.KindCall, Target: obj, Member: fmt.Sprintf("C.m%d/0", (i+1)%4),
				Args: []trace.Repr{trace.PrimRepr("Int", fmt.Sprint(i%11))}})
	}
	return tr
}

type sseResult struct {
	events []sentinel.Event
	err    error
}

// startSSE connects to a watch event stream (synchronously, so the
// caller knows the subscription exists before triggering events) and
// consumes it to EOF in the background.
func startSSE(t *testing.T, ts *httptest.Server, path string) <-chan sseResult {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	ch := make(chan sseResult, 1)
	go func() {
		defer resp.Body.Close()
		var res sseResult
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev sentinel.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				res.err = fmt.Errorf("bad SSE data frame %q: %w", line, err)
				break
			}
			res.events = append(res.events, ev)
		}
		if res.err == nil {
			res.err = sc.Err()
		}
		ch <- res
	}()
	return ch
}

// collectSSE waits for a startSSE stream to end and returns its events.
func collectSSE(t *testing.T, ch <-chan sseResult) []sentinel.Event {
	t.Helper()
	select {
	case res := <-ch:
		if res.err != nil {
			t.Fatal(res.err)
		}
		return res.events
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream did not end")
		return nil
	}
}

// awaitInfo polls GET /watches/{id} until pred accepts the watch info.
func awaitInfo(t *testing.T, ts *httptest.Server, id string, pred func(sentinel.Info) bool) sentinel.Info {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var info sentinel.Info
	for time.Now().Before(deadline) {
		status, raw := doJSON(t, http.MethodGet, ts.URL+"/watches/"+id, nil, &info)
		if status != http.StatusOK {
			t.Fatalf("GET /watches/%s: status %d: %s", id, status, raw)
		}
		if pred(info) {
			return info
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("watch %s never reached the awaited state: %+v", id, info)
	return info
}

// TestWatchRoutesEndToEnd drives the full HTTP watch surface: create a
// watch on a live session, diverge the session, observe the divergence
// and terminal events over SSE (with replay for a late subscriber
// and ?after= resume), and check /stats reflects it all.
func TestWatchRoutesEndToEnd(t *testing.T) {
	ts, srv := newTestServer(t, Options{})
	t.Cleanup(srv.eng.Close) // runs before ts.Close (LIFO): watches end first

	base := watchTrace(240, 3)
	info := upload(t, ts, base)

	sess, err := srv.store.OpenSession("livewatch")
	if err != nil {
		t.Fatal(err)
	}

	// Bad requests first: unknown session, missing fields, bad digest.
	status, raw := doJSON(t, http.MethodPost, ts.URL+"/watches",
		[]byte(`{"session":"nope","baseline":"`+info.ID+`"}`), nil)
	if status != http.StatusNotFound {
		t.Fatalf("watch on unknown session: status %d: %s", status, raw)
	}
	assertErrEnvelope(t, raw, CodeNotFound)
	status, raw = doJSON(t, http.MethodPost, ts.URL+"/watches", []byte(`{"session":"`+sess.ID()+`"}`), nil)
	if status != http.StatusBadRequest {
		t.Fatalf("watch without baseline: status %d: %s", status, raw)
	}
	status, raw = doJSON(t, http.MethodPost, ts.URL+"/watches",
		[]byte(`{"session":"`+sess.ID()+`","baseline":"zzzz"}`), nil)
	if status != http.StatusBadRequest {
		t.Fatalf("watch with bad digest: status %d: %s", status, raw)
	}

	var wi sentinel.Info
	status, raw = doJSON(t, http.MethodPost, ts.URL+"/watches",
		[]byte(`{"session":"session:`+sess.ID()+`","baseline":"`+info.ID+`"}`), &wi)
	if status != http.StatusCreated {
		t.Fatalf("create watch: status %d: %s", status, raw)
	}
	if wi.ID == "" || wi.Session != sess.ID() || wi.Baseline != info.ID {
		t.Fatalf("watch info: %+v", wi)
	}

	var list []sentinel.Info
	status, raw = doJSON(t, http.MethodGet, ts.URL+"/watches", nil, &list)
	if status != http.StatusOK || len(list) != 1 || list[0].ID != wi.ID {
		t.Fatalf("list watches: status %d: %s", status, raw)
	}

	// Clean prefix, then a segment with novel calls: the sentinel must
	// notice within one appended segment.
	if _, err := sess.Append(base.Entries[:120]); err != nil {
		t.Fatal(err)
	}
	divergent := trace.New("livewatch")
	for _, e := range base.Entries[:120] {
		divergent.Append(e.TID, e.Method, e.Self, e.Event)
	}
	novel := trace.Repr{Loc: trace.Loc(600), Class: "Bug", Seq: 4}
	for k := 0; k < 12; k++ {
		divergent.Append(0, "Bug.trip/0", novel,
			trace.Event{Kind: trace.KindCall, Target: novel, Member: "Bug.trip/0"})
	}
	if _, err := sess.Append(divergent.Entries[120:]); err != nil {
		t.Fatal(err)
	}
	awaitInfo(t, ts, wi.ID, func(i sentinel.Info) bool { return i.Diverged })

	// Subscribe late: the watch must replay the divergence that already
	// happened. A second stream resumes past it with ?after=1 (the
	// divergence is this watch's first event, seq 1).
	full := startSSE(t, ts, "/watches/"+wi.ID+"/events")
	tail := startSSE(t, ts, "/watches/"+wi.ID+"/events?after=1")

	// Deleting the watched session aborts it; the watch emits its
	// terminal event, both streams end, and the watch detaches.
	status, raw = doJSON(t, http.MethodDelete, ts.URL+"/sessions/"+sess.ID(), nil, nil)
	if status != http.StatusOK {
		t.Fatalf("delete session: status %d: %s", status, raw)
	}

	events := collectSSE(t, full)
	if len(events) != 2 || events[0].Kind != sentinel.EventDivergence || events[1].Kind != sentinel.EventWatchClosed {
		t.Fatalf("SSE events = %+v, want [divergence watch_closed]", events)
	}
	div := events[0]
	if div.Seq != 1 || div.WatchID != wi.ID || div.SessionID != sess.ID() || div.Baseline != info.ID {
		t.Fatalf("divergence event: %+v", div)
	}
	if div.Candidates == 0 || len(div.Summary) == 0 {
		t.Fatalf("divergence event carries no candidates: %+v", div)
	}
	if div.Watermark != trace.EntryID(divergent.Len()-1) {
		t.Fatalf("watermark = %d, want %d", div.Watermark, divergent.Len()-1)
	}
	if events[1].Reason != "session aborted" {
		t.Fatalf("terminal reason = %q, want session aborted", events[1].Reason)
	}

	after := collectSSE(t, tail)
	if len(after) != 1 || after[0].Kind != sentinel.EventWatchClosed {
		t.Fatalf("?after=1 events = %+v, want only watch_closed", after)
	}

	var stats StatsResponse
	status, raw = doJSON(t, http.MethodGet, ts.URL+"/stats", nil, &stats)
	if status != http.StatusOK {
		t.Fatalf("stats: status %d: %s", status, raw)
	}
	if stats.Sentinel.Divergences != 1 || stats.Sentinel.WatchesOpened != 1 || stats.Sentinel.Evaluations == 0 {
		t.Fatalf("sentinel stats: %+v", stats.Sentinel)
	}
	if stats.Sentinel.Watches != 0 {
		t.Fatalf("watch still attached after terminal event: %+v", stats.Sentinel)
	}
}

// TestWatchDetachRoute pins DELETE /watches/{id}: the watch closes with
// a terminal detach event, leaves the listing, and the session itself
// stays open and usable.
func TestWatchDetachRoute(t *testing.T) {
	ts, srv := newTestServer(t, Options{})
	t.Cleanup(srv.eng.Close)

	base := watchTrace(120, 2)
	info := upload(t, ts, base)
	sess, err := srv.store.OpenSession("detachme")
	if err != nil {
		t.Fatal(err)
	}
	var wi sentinel.Info
	status, raw := doJSON(t, http.MethodPost, ts.URL+"/watches",
		[]byte(`{"session":"`+sess.ID()+`","baseline":"`+info.ID+`"}`), &wi)
	if status != http.StatusCreated {
		t.Fatalf("create watch: status %d: %s", status, raw)
	}
	if _, err := sess.Append(base.Entries[:40]); err != nil {
		t.Fatal(err)
	}

	stream := startSSE(t, ts, "/watches/"+wi.ID+"/events")

	var closed sentinel.Info
	status, raw = doJSON(t, http.MethodDelete, ts.URL+"/watches/"+wi.ID, nil, &closed)
	if status != http.StatusOK {
		t.Fatalf("delete watch: status %d: %s", status, raw)
	}
	if !closed.Closed {
		t.Fatalf("deleted watch not closed: %+v", closed)
	}

	events := collectSSE(t, stream)
	if len(events) == 0 || events[len(events)-1].Kind != sentinel.EventWatchClosed {
		t.Fatalf("detach stream events = %+v, want terminal watch_closed", events)
	}
	for _, ev := range events {
		if ev.Kind == sentinel.EventDivergence {
			t.Fatalf("clean replay raised a divergence: %+v", ev)
		}
	}

	status, raw = doJSON(t, http.MethodGet, ts.URL+"/watches/"+wi.ID, nil, nil)
	if status != http.StatusNotFound {
		t.Fatalf("get deleted watch: status %d: %s", status, raw)
	}
	assertErrEnvelope(t, raw, CodeNotFound)
	status, raw = doJSON(t, http.MethodDelete, ts.URL+"/watches/"+wi.ID, nil, nil)
	if status != http.StatusNotFound {
		t.Fatalf("second delete: status %d: %s", status, raw)
	}

	// The session survives its watch.
	if _, err := sess.Append(base.Entries[40:80]); err != nil {
		t.Fatal(err)
	}
	sess.Abort()
}

// TestWatchConfigKeepsEngineDefaults pins that a watch request setting
// only "parallelism" keeps every other engine-default diff tunable, the
// way /run's params overlay DefaultDiffOptions.
func TestWatchConfigKeepsEngineDefaults(t *testing.T) {
	defaults := rprism.DiffOptions{Window: 9, Radius: 3, MaxScan: 200, QuickScan: 4, MaxExplore: 7, Relaxed: true}
	eng := rprism.NewEngine(rprism.WithDiffOptions(defaults))
	var req WatchRequest
	if err := json.Unmarshal([]byte(`{"session":"s","baseline":"b","parallelism":2}`), &req); err != nil {
		t.Fatal(err)
	}
	want := defaults
	want.Parallelism = 2
	if got := rprismWatchConfig(req, eng.DefaultDiffOptions()).DiffOpts; got != want {
		t.Errorf("watch diff options = %+v, want the engine defaults with Parallelism 2: %+v", got, want)
	}
	req.Parallelism = 0
	if got := rprismWatchConfig(req, eng.DefaultDiffOptions()).DiffOpts; got != defaults {
		t.Errorf("watch diff options without parallelism = %+v, want the engine defaults %+v", got, defaults)
	}
}
