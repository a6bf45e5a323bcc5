package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	rprism "repro"
	"repro/internal/capture"
	"repro/internal/corpus"
	"repro/internal/trace"
)

// fuzzRoutes are the POST routes whose JSON bodies FuzzServerBodies
// feeds: every one decodes untrusted request bytes into engine calls.
var fuzzRoutes = []string{"/watches", "/run/diff", "/traces/stream"}

// FuzzServerBodies sends arbitrary bytes as the body of every fuzzRoutes
// entry to one in-process server whose store holds two small traces and
// one open session. Every answer must be JSON — the error envelope for
// a 4xx or 5xx — and none may be a 500: a malformed body is the
// client's mistake, never an internal error, and nothing may panic.
// Sessions and watches a body manages to open are torn down after each
// input, so one input cannot starve the next of session slots.
func FuzzServerBodies(f *testing.F) {
	store, err := corpus.New(f.TempDir(), corpus.Options{})
	if err != nil {
		f.Fatal(err)
	}
	eng := rprism.NewEngine(rprism.WithCorpus(store))
	f.Cleanup(eng.Close)
	srv := New(eng, Options{Workers: 2, RequestTimeout: 2 * time.Second})
	h := srv.Handler()

	left, right := watchTrace(120, 3), baselineTrace(120)
	lid, _, err := store.Put(left)
	if err != nil {
		f.Fatal(err)
	}
	rid, _, err := store.Put(right)
	if err != nil {
		f.Fatal(err)
	}
	live, err := store.OpenSession("fuzzlive")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := live.Append(left.Entries[:60]); err != nil {
		f.Fatal(err)
	}
	keep := live.ID()

	// Seeds: the bodies the server tests send to these routes.
	runBody := func(req RunRequest) []byte {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	pair := map[string]string{"left": lid.String(), "right": rid.String()}
	f.Add(runBody(RunRequest{Traces: pair}))
	f.Add(runBody(RunRequest{Traces: pair, MaxSeqs: -1}))
	f.Add(runBody(RunRequest{Traces: pair, Params: json.RawMessage(`{"parallelism":2}`)}))
	f.Add(runBody(RunRequest{Traces: map[string]string{"left": "session:" + keep, "right": rid.String()}}))
	f.Add([]byte(`{"traces":{"left":"zz","right":"` + rid.String()[:8] + `"}}`))
	f.Add([]byte(`{"session":"nope","baseline":"` + lid.String() + `"}`))
	f.Add([]byte(`{"session":"` + keep + `"}`))
	f.Add([]byte(`{"session":"` + keep + `","baseline":"zzzz"}`))
	f.Add([]byte(`{"session":"session:` + keep + `","baseline":"` + lid.String() + `","parallelism":2}`))
	f.Add([]byte(`{"frame":"segment"}` + "\n"))
	f.Add([]byte(`{"frame":"open","name":"empty"}` + "\n" + `{"frame":"close"}` + "\n"))
	f.Add([]byte(`{"frame":"open","session":"live-nope"}` + "\n"))
	var stream bytes.Buffer
	var enc trace.WireEncoder
	seg := enc.Segment(right.Entries[:40])
	je := json.NewEncoder(&stream)
	for _, fr := range []capture.StreamFrame{
		{Frame: capture.FrameOpen, Name: "resume"},
		{Frame: capture.FrameSegment, Symbols: seg.Symbols, Entries: seg.Entries},
		{Frame: capture.FrameClose},
	} {
		if err := je.Encode(fr); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream.Bytes())

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, route := range fuzzRoutes {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
			raw := rec.Body.Bytes()
			if rec.Code == http.StatusInternalServerError {
				t.Fatalf("POST %s: 500 for body %q: %s", route, body, raw)
			}
			if !json.Valid(raw) {
				t.Fatalf("POST %s: status %d with a non-JSON answer for body %q: %s", route, rec.Code, body, raw)
			}
			if rec.Code >= 400 {
				var env errorResponse
				if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
					t.Fatalf("POST %s: status %d without the error envelope for body %q: %s", route, rec.Code, body, raw)
				}
			}
		}
		for _, w := range eng.Sentinel().List() {
			eng.Sentinel().Detach(w.ID)
		}
		for _, s := range store.Sessions() {
			if s.ID != keep {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodDelete, "/sessions/"+s.ID, nil))
			}
		}
	})
}
