package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	rprism "repro"
	"repro/internal/capture"
	"repro/internal/corpus"
	"repro/internal/trace"
	"repro/internal/views"
)

// baselineTrace builds a deterministic multi-thread trace to serve as
// the stored corpus baseline live sessions are diffed against.
func baselineTrace(n int) *trace.Trace {
	t := trace.New("baseline")
	for i := 0; i < n; i++ {
		obj := trace.Repr{Loc: trace.Loc(1 + i%9), Class: "Worker", Seq: 1 + i%9}
		t.Append(trace.ThreadID(i%4), fmt.Sprintf("Worker.step%d/0", i%3), obj,
			trace.Event{Kind: trace.KindGet, Target: obj, Member: "state",
				Args: []trace.Repr{trace.PrimRepr("Int", fmt.Sprint(i%17))}})
	}
	return t
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode
}

// TestLiveCaptureEndToEnd is the acceptance path of the capture tier: a
// capture.Recorder streams a multi-goroutine run into rprism-serve, the
// session's incremental web is diffed against a corpus baseline
// mid-session, and the finalized trace's digest round-trips through
// GET /traces/{id} identical to a batch-loaded copy.
func TestLiveCaptureEndToEnd(t *testing.T) {
	store, err := corpus.New(t.TempDir(), corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseGoroutines := runtime.NumGoroutine()
	func() { // scope the server lifetime for the leak check below
		ts, srv := newTestServerWithStore(t, store)
		defer ts.Close()
		_ = srv

		// Baseline into the corpus the usual way.
		base := baselineTrace(400)
		baseID, _, err := store.Put(base)
		if err != nil {
			t.Fatal(err)
		}

		// A real (Go) multi-goroutine program records itself, streaming
		// live into the server. Manual flushes keep the test deterministic.
		rec, err := capture.Start(capture.Options{
			ServerURL: ts.URL, Name: "live-run", SegmentLimit: 64, RingSize: 32, FlushInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		pool := trace.Repr{Loc: 1, Class: "Pool", Seq: 1}
		exitMain := rec.Enter("Pool.run/0", pool)
		var wg sync.WaitGroup
		phase2 := make(chan struct{})
		const workers = 3
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			rec.Go(func() {
				defer wg.Done()
				self := trace.Repr{Loc: trace.Loc(10 + w), Class: "Worker", Seq: w + 1}
				exit := rec.Enter("Worker.work/1", self, trace.PrimRepr("Int", fmt.Sprint(w)))
				defer exit()
				for i := 0; i < 25; i++ {
					rec.Emit(trace.Event{Kind: trace.KindSet, Target: self, Member: "state",
						Args: []trace.Repr{trace.PrimRepr("Int", fmt.Sprint(i))}})
					if i == 10 {
						<-phase2 // hold mid-run so the test can query the live session
					}
				}
			})
		}
		// Let the workers reach their hold point, then push what's
		// buffered to the server: the session now exists, mid-run.
		time.Sleep(50 * time.Millisecond)
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}

		// The session is visible and counting.
		var sessions []corpus.SessionInfo
		if code := getJSON(t, ts.URL+"/sessions", &sessions); code != 200 {
			t.Fatalf("GET /sessions: %d", code)
		}
		if len(sessions) != 1 || sessions[0].Entries == 0 {
			t.Fatalf("sessions mid-run: %+v", sessions)
		}
		sid := sessions[0].ID

		var health HealthResponse
		getJSON(t, ts.URL+"/healthz", &health)
		if health.OpenSessions != 1 || health.SessionEntries != sessions[0].Entries {
			t.Errorf("healthz mid-run: %+v", health)
		}

		// Mid-session: diff the live session against the corpus baseline.
		var dr DiffResponse
		if code, _ := runDiff(t, ts.URL, "session:"+sid, baseID.String(), 0, &dr); code != 200 {
			t.Fatalf("mid-session diff: HTTP %d", code)
		}
		if dr.Left != "session:"+sid || dr.Right != baseID.String() {
			t.Errorf("diff labels: %q vs %q", dr.Left, dr.Right)
		}
		if dr.NumDiffs == 0 {
			t.Error("mid-session diff found no differences against an unrelated baseline")
		}

		// The live web equals a fresh batch build over the same snapshot.
		sess, err := store.Session(sid)
		if err != nil {
			t.Fatal(err)
		}
		snap := sess.Snapshot()
		if err := views.Equivalent(views.Build(snap), sess.Web()); err != nil {
			t.Errorf("incremental web vs batch build mid-session: %v", err)
		}

		// Generic /run works against the session too.
		runBody, _ := json.Marshal(map[string]any{
			"traces": map[string]string{"left": "session:" + sid, "right": baseID.String()},
		})
		resp, err := http.Post(ts.URL+"/run/diff", "application/json", bytes.NewReader(runBody))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("POST /run/diff with session source: HTTP %d", resp.StatusCode)
		}

		// Release the workers, finish the run, finalize the session.
		close(phase2)
		wg.Wait()
		exitMain()
		sum, err := rec.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sum.Session != sid {
			t.Errorf("recorder session %q, listed session %q", sum.Session, sid)
		}
		if sum.TraceID == "" || !sum.Created {
			t.Fatalf("close did not finalize: %+v", sum)
		}
		want := 2 + workers*(25+4)
		if sum.Entries != want {
			t.Errorf("captured %d entries, want %d", sum.Entries, want)
		}

		// The session is gone; the finalized trace round-trips by digest.
		if code := getJSON(t, ts.URL+"/sessions/"+sid, nil); code != 404 {
			t.Errorf("closed session still served: HTTP %d", code)
		}
		var info TraceInfo
		if code := getJSON(t, ts.URL+"/traces/"+sum.TraceID, &info); code != 200 {
			t.Fatalf("GET /traces/%s: %d", sum.TraceID, code)
		}
		if info.Entries != sum.Entries {
			t.Errorf("stored trace has %d entries, capture sent %d", info.Entries, sum.Entries)
		}
		id, err := trace.ParseDigest(sum.TraceID)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := store.Get(id) // batch path: disk segments reassembled
		if err != nil {
			t.Fatal(err)
		}
		if got := loaded.ComputeDigest(); got != id {
			t.Errorf("batch-loaded copy digests to %s, want %s", got, id)
		}
		// Re-admitting the batch-loaded copy dedups: byte-identical content.
		copyTrace := &trace.Trace{Name: loaded.Name, Entries: loaded.Entries}
		if _, created, err := store.Put(copyTrace); err != nil || created {
			t.Errorf("batch-loaded copy not identical: created=%v err=%v", created, err)
		}
		// And its digest is addressable for normal analyses now.
		if code, _ := runDiff(t, ts.URL, id.String(), baseID.String(), 0, nil); code != 200 {
			t.Errorf("diff over finalized trace: HTTP %d", code)
		}
	}()

	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseGoroutines {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutines leaked: %d before, %d after\n%s", baseGoroutines, g, buf[:n])
	}
}

// TestStreamResume exercises the resumability contract at the HTTP
// level: a dropped-and-retried batch is applied once, a resumed request
// continues the same session, and an unknown session 404s.
func TestStreamResume(t *testing.T) {
	ts, _ := newTestServer(t, Options{})

	src := baselineTrace(60)
	var enc trace.WireEncoder
	post := func(frames ...capture.StreamFrame) (*capture.StreamAck, int) {
		var body bytes.Buffer
		je := json.NewEncoder(&body)
		for _, f := range frames {
			if err := je.Encode(f); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := http.Post(ts.URL+"/traces/stream", "application/x-ndjson", &body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			return nil, resp.StatusCode
		}
		var ack capture.StreamAck
		if err := json.Unmarshal(raw, &ack); err != nil {
			t.Fatalf("bad ack %q: %v", raw, err)
		}
		return &ack, 200
	}
	segFrame := func(entries []trace.Entry) capture.StreamFrame {
		seg := enc.Segment(entries)
		return capture.StreamFrame{Frame: capture.FrameSegment, Symbols: seg.Symbols, Entries: seg.Entries}
	}

	// Open + first batch.
	ack, code := post(
		capture.StreamFrame{Frame: capture.FrameOpen, Name: "resume"},
		segFrame(src.Entries[:20]),
	)
	if code != 200 || ack.Entries != 20 {
		t.Fatalf("first batch: code=%d ack=%+v", code, ack)
	}
	sid := ack.Session

	// Retry of the IDENTICAL first request (as after a lost ack): no
	// duplicate entries, and — critically — no duplicate symbol-delta
	// application, or every later frame's refs would skew. We rebuild
	// the byte-identical frame with a fresh encoder to simulate the
	// client resending its prepared body.
	var encRetry trace.WireEncoder
	seg0 := encRetry.Segment(src.Entries[:20])
	if ack, code = post(
		capture.StreamFrame{Frame: capture.FrameOpen, Session: sid},
		capture.StreamFrame{Frame: capture.FrameSegment, Symbols: seg0.Symbols, Entries: seg0.Entries},
	); code != 200 || ack.Entries != 20 {
		t.Fatalf("retried batch: code=%d ack=%+v", code, ack)
	}

	// Resume with the rest, in a separate request, and close.
	ack, code = post(
		capture.StreamFrame{Frame: capture.FrameOpen, Session: sid},
		segFrame(src.Entries[20:]),
		capture.StreamFrame{Frame: capture.FrameClose},
	)
	if code != 200 || ack.Trace == nil || ack.Trace.Entries != 60 {
		t.Fatalf("final batch: code=%d ack=%+v", code, ack)
	}
	if want := src.ComputeDigest().String(); ack.Trace.ID != want {
		t.Errorf("finalized digest %s, want %s", ack.Trace.ID, want)
	}
	finalID := ack.Trace.ID

	// A retried close request (lost ack) is answered idempotently from
	// the finalized-session tombstone, not 404.
	var encRetry2 trace.WireEncoder
	encRetry2.Segment(src.Entries[:20]) // advance past batch 0 like the real client
	seg2 := encRetry2.Segment(src.Entries[20:])
	ack, code = post(
		capture.StreamFrame{Frame: capture.FrameOpen, Session: sid},
		capture.StreamFrame{Frame: capture.FrameSegment, Symbols: seg2.Symbols, Entries: seg2.Entries},
		capture.StreamFrame{Frame: capture.FrameClose},
	)
	if code != 200 || ack.Trace == nil || ack.Trace.ID != finalID {
		t.Fatalf("retried close not idempotent: code=%d ack=%+v", code, ack)
	}

	// Unknown session → 404; gapped segment → 400.
	if _, code := post(capture.StreamFrame{Frame: capture.FrameOpen, Session: "live-nope"}); code != 404 {
		t.Errorf("unknown session: HTTP %d", code)
	}
	ack2, _ := post(capture.StreamFrame{Frame: capture.FrameOpen, Name: "gappy"})
	var enc2 trace.WireEncoder
	seg := enc2.Segment(src.Entries[5:10])
	if _, code := post(
		capture.StreamFrame{Frame: capture.FrameOpen, Session: ack2.Session},
		capture.StreamFrame{Frame: capture.FrameSegment, Symbols: seg.Symbols, Entries: seg.Entries},
	); code != 400 {
		t.Errorf("gapped segment: HTTP %d", code)
	}
}

func TestStreamValidation(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	// Not starting with an open frame.
	resp, err := http.Post(ts.URL+"/traces/stream", "application/x-ndjson",
		bytes.NewBufferString(`{"frame":"segment"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("segment-first stream: HTTP %d", resp.StatusCode)
	}
	// Closing an empty session.
	var body bytes.Buffer
	body.WriteString(`{"frame":"open","name":"empty"}` + "\n" + `{"frame":"close"}` + "\n")
	resp, err = http.Post(ts.URL+"/traces/stream", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("empty close: HTTP %d body %s", resp.StatusCode, raw)
	}
	// Aborting a session.
	var ack capture.StreamAck
	resp, err = http.Post(ts.URL+"/traces/stream", "application/x-ndjson",
		bytes.NewBufferString(`{"frame":"open","name":"doomed"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+ack.Session, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != 200 {
		t.Errorf("abort: HTTP %d", dresp.StatusCode)
	}
	var sessions []corpus.SessionInfo
	getJSON(t, ts.URL+"/sessions", &sessions)
	for _, s := range sessions {
		if s.ID == ack.Session {
			t.Error("aborted session still listed")
		}
	}
}

// newTestServerWithStore is newTestServer over a caller-owned store.
func newTestServerWithStore(t *testing.T, store *corpus.Store) (*httptest.Server, *Server) {
	t.Helper()
	srv := New(rprism.NewEngine(rprism.WithCorpus(store)), Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}
