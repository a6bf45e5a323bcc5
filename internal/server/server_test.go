package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	rprism "repro"
	"repro/internal/corpus"
	"repro/internal/diff"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/regression"
	"repro/internal/subjects"
	"repro/internal/trace"
)

// tracePair runs the Rhino-like subject twice — once clean, once with the
// planted arithmetic bug — exactly like the CLI's own workloads.
func tracePair(t *testing.T) (*trace.Trace, *trace.Trace) {
	t.Helper()
	// Seed 11 makes the planted bug fire even on a short script (the
	// a%13/12 term needs an addition with a ≡ 12 mod 13 to diverge).
	script := subjects.GenScript(8, 11)
	run := func(src, name string) *trace.Trace {
		res, err := interp.Run(lang.MustParse(src), interp.Options{Args: []string{script}, TraceName: name})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Trace
	}
	good := run(subjects.RhinoSource(), "good")
	bad := run(strings.Replace(subjects.RhinoSource(),
		`if (sym.equals("+")) { return a + b; }`,
		`if (sym.equals("+")) { return a + b + a % 13 / 12; }`, 1), "bad")
	return good, bad
}

// rsegBytes serializes a trace exactly as `rprism trace -out` would.
func rsegBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteRSEG(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runDiff posts a diff of two trace references to /run/diff, rendering
// at most maxSeqs sequences (0 = the server default, -1 = all).
func runDiff(t *testing.T, base, left, right string, maxSeqs int, out any) (int, string) {
	t.Helper()
	body, err := json.Marshal(RunRequest{Traces: map[string]string{"left": left, "right": right}, MaxSeqs: maxSeqs})
	if err != nil {
		t.Fatal(err)
	}
	return doJSON(t, http.MethodPost, base+"/run/diff", body, out)
}

func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Server) {
	t.Helper()
	store, err := corpus.New(t.TempDir(), corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(rprism.NewEngine(rprism.WithCorpus(store)), opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// assertErrEnvelope requires raw to be the standard JSON error envelope
// {"error": {"code": ..., "message": ...}} and (when wantCode is
// non-empty) to carry the expected code.
func assertErrEnvelope(t *testing.T, raw, wantCode string) {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(raw), &env); err != nil {
		t.Fatalf("error response is not the JSON envelope: %v\n%s", err, raw)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Errorf("envelope missing code or message: %s", raw)
	}
	if wantCode != "" && env.Error.Code != wantCode {
		t.Errorf("error code %q, want %q (message: %s)", env.Error.Code, wantCode, env.Error.Message)
	}
}

func doJSON(t *testing.T, method, url string, body []byte, out any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("bad JSON from %s %s: %v\n%s", method, url, err, raw)
		}
	}
	return resp.StatusCode, string(raw)
}

func upload(t *testing.T, ts *httptest.Server, tr *trace.Trace) TraceInfo {
	t.Helper()
	var info TraceInfo
	status, raw := doJSON(t, http.MethodPut, ts.URL+"/traces", rsegBytes(t, tr), &info)
	if status != http.StatusCreated && status != http.StatusOK {
		t.Fatalf("upload: status %d: %s", status, raw)
	}
	return info
}

// TestEndToEndDiffMatchesCLI is the acceptance path: upload two traces
// over HTTP and check POST /run/diff reports exactly the diff the CLI
// pipeline (trace load + views-based diff) produces on the same pair.
func TestEndToEndDiffMatchesCLI(t *testing.T) {
	good, bad := tracePair(t)
	ts, _ := newTestServer(t, Options{})

	gi := upload(t, ts, good)
	bi := upload(t, ts, bad)
	if gi.ID == bi.ID {
		t.Fatal("distinct traces share a digest")
	}
	if !gi.Created || !bi.Created {
		t.Errorf("fresh uploads not marked created: %+v %+v", gi, bi)
	}
	if gi.Entries != good.Len() {
		t.Errorf("uploaded entry count %d, trace has %d", gi.Entries, good.Len())
	}

	// The CLI path: load the same serialized bytes and run the default
	// views-based diff, as `rprism diff -left good -right bad` does.
	l, err := trace.ReadAny("good", bytes.NewReader(rsegBytes(t, good)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := trace.ReadAny("bad", bytes.NewReader(rsegBytes(t, bad)))
	if err != nil {
		t.Fatal(err)
	}
	want := diff.ViewDiff(l, r, diff.ViewOptions{})

	var got DiffResponse
	status, raw := runDiff(t, ts.URL, gi.ID, bi.ID, -1, &got)
	if status != http.StatusOK {
		t.Fatalf("diff: status %d: %s", status, raw)
	}
	if got.NumDiffs != want.NumDiffs() || got.DiffLeft != len(want.DiffLeft) || got.DiffRight != len(want.DiffRight) {
		t.Errorf("diff counts: got %d/%d/%d, CLI %d/%d/%d",
			got.NumDiffs, got.DiffLeft, got.DiffRight,
			want.NumDiffs(), len(want.DiffLeft), len(want.DiffRight))
	}
	if got.NumSequences != len(want.Sequences) || len(got.Sequences) != len(want.Sequences) {
		t.Fatalf("sequences: got %d (%d rendered), CLI %d",
			got.NumSequences, len(got.Sequences), len(want.Sequences))
	}
	if got.NumDiffs == 0 {
		t.Fatal("planted bug produced no differences")
	}
	for i, seq := range want.Sequences {
		g := got.Sequences[i]
		if g.Kind != seq.Kind.String() || len(g.Left) != len(seq.Left) || len(g.Right) != len(seq.Right) {
			t.Fatalf("sequence %d shape mismatch: %+v vs kind=%s %d/%d",
				i, g, seq.Kind, len(seq.Left), len(seq.Right))
		}
		for j, eid := range seq.Left {
			if g.Left[j] != want.Left.Entries[eid].String() {
				t.Fatalf("sequence %d left[%d]: %q vs %q", i, j, g.Left[j], want.Left.Entries[eid])
			}
		}
		for j, eid := range seq.Right {
			if g.Right[j] != want.Right.Entries[eid].String() {
				t.Fatalf("sequence %d right[%d]: %q vs %q", i, j, g.Right[j], want.Right.Entries[eid])
			}
		}
	}
}

func TestUploadDedupAndList(t *testing.T) {
	good, _ := tracePair(t)
	ts, _ := newTestServer(t, Options{})
	first := upload(t, ts, good)
	again := upload(t, ts, good)
	if again.Created {
		t.Error("re-upload marked created")
	}
	if first.ID != again.ID {
		t.Error("re-upload changed id")
	}
	var list []TraceInfo
	if status, raw := doJSON(t, http.MethodGet, ts.URL+"/traces", nil, &list); status != http.StatusOK {
		t.Fatalf("list: %d %s", status, raw)
	}
	if len(list) != 1 || list[0].ID != first.ID {
		t.Errorf("list = %+v", list)
	}
	var info TraceInfo
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/traces/"+first.ID, nil, &info); status != http.StatusOK {
		t.Fatal("GET /traces/{id} failed")
	}
	if info.Name != "good" {
		t.Errorf("trace name %q", info.Name)
	}
}

func TestViewsSummaryEndpoint(t *testing.T) {
	good, _ := tracePair(t)
	ts, _ := newTestServer(t, Options{})
	gi := upload(t, ts, good)
	var vs ViewsSummary
	status, raw := doJSON(t, http.MethodGet, ts.URL+"/traces/"+gi.ID+"/views?max=5", nil, &vs)
	if status != http.StatusOK {
		t.Fatalf("views: %d %s", status, raw)
	}
	if vs.Counts.Total == 0 || vs.Counts.Thread == 0 || vs.Counts.Method == 0 {
		t.Errorf("degenerate view counts: %+v", vs.Counts)
	}
	if len(vs.Views) != 5 {
		t.Errorf("max=5 returned %d views", len(vs.Views))
	}
	// Largest views first.
	for i := 1; i < len(vs.Views); i++ {
		if vs.Views[i].Entries > vs.Views[i-1].Entries {
			t.Errorf("views not sorted by size: %+v", vs.Views)
			break
		}
	}
}

func TestUploadRejectsNonDenseEIDs(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	tr := trace.New("evil")
	tr.Append(1, "M.m/0", trace.Repr{}, trace.Event{Kind: trace.KindCall, Member: "M.m/0"})
	tr.Append(1, "M.m/0", trace.Repr{}, trace.Event{Kind: trace.KindCall, Member: "M.m/0"})
	tr.Entries[1].EID = 1 << 20
	// JSONL carries each entry's id verbatim (the RSEG decoder already
	// refuses such a file), so the crafted ids reach the corpus check.
	var body bytes.Buffer
	if err := tr.WriteJSONL(&body); err != nil {
		t.Fatal(err)
	}
	status, raw := doJSON(t, http.MethodPut, ts.URL+"/traces", body.Bytes(), nil)
	if status != http.StatusBadRequest {
		t.Errorf("crafted EIDs: status %d: %s", status, raw)
	}
	assertErrEnvelope(t, raw, CodeBadRequest)
	if !strings.Contains(raw, "consecutive") {
		t.Errorf("unhelpful rejection: %s", raw)
	}
}

func TestUploadTooLargeIs413(t *testing.T) {
	good, _ := tracePair(t)
	ts, _ := newTestServer(t, Options{MaxUploadBytes: 1024})
	status, raw := doJSON(t, http.MethodPut, ts.URL+"/traces", rsegBytes(t, good), nil)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload: status %d: %s", status, raw)
	}
	assertErrEnvelope(t, raw, CodeTooLarge)
}

func TestAnalyzeEndpointMatchesLibrary(t *testing.T) {
	good, bad := tracePair(t)
	ts, _ := newTestServer(t, Options{})
	gi := upload(t, ts, good)
	bi := upload(t, ts, bad)

	body, _ := json.Marshal(RunRequest{Traces: map[string]string{
		"orig_correct": gi.ID, "new_correct": gi.ID, "orig_regr": gi.ID, "new_regr": bi.ID,
	}})
	var got AnalyzeResponse
	status, raw := doJSON(t, http.MethodPost, ts.URL+"/run/regression", body, &got)
	if status != http.StatusOK {
		t.Fatalf("analyze: %d %s", status, raw)
	}

	a := diff.ViewDiff(good, bad, diff.ViewOptions{})
	b := diff.ViewDiff(good, good, diff.ViewOptions{})
	c := diff.ViewDiff(good, bad, diff.ViewOptions{})
	want := regression.Combine(a, b, c, false)
	if got.Sizes != want.Sizes || got.Candidates != len(want.D) {
		t.Errorf("analyze: got sizes=%+v candidates=%d, want %+v %d",
			got.Sizes, got.Candidates, want.Sizes, len(want.D))
	}
	if got.Report == "" {
		t.Error("empty report")
	}
}

func TestErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	good, _ := tracePair(t)
	gi := upload(t, ts, good)

	cases := []struct {
		name, method, url string
		body              []byte
		want              int
		code              string
	}{
		{"junk upload", http.MethodPut, ts.URL + "/traces", []byte("not a trace"), http.StatusBadRequest, CodeBadRequest},
		{"bad digest", http.MethodGet, ts.URL + "/traces/zzzz", nil, http.StatusBadRequest, CodeBadRequest},
		{"unknown trace", http.MethodGet, ts.URL + "/traces/" + strings.Repeat("ab", 32), nil, http.StatusNotFound, CodeNotFound},
		{"unknown views", http.MethodGet, ts.URL + "/traces/" + strings.Repeat("ab", 32) + "/views", nil, http.StatusNotFound, CodeNotFound},
		{"run unknown right", http.MethodPost, ts.URL + "/run/diff",
			[]byte(`{"traces":{"left":"` + gi.ID + `","right":"` + strings.Repeat("cd", 32) + `"}}`),
			http.StatusNotFound, CodeNotFound},
		{"run bad body", http.MethodPost, ts.URL + "/run/regression", []byte("{"), http.StatusBadRequest, CodeBadRequest},
		{"run regression bad digest", http.MethodPost, ts.URL + "/run/regression",
			[]byte(`{"traces":{"orig_correct":"xx","new_correct":"xx","orig_regr":"xx","new_regr":"xx"}}`),
			http.StatusBadRequest, CodeBadRequest},
		// The removed alias routes answer like any unknown endpoint.
		{"removed GET /diff", http.MethodGet, ts.URL + "/diff?left=" + gi.ID + "&right=" + gi.ID, nil,
			http.StatusNotFound, "not_found"},
		{"removed POST /analyze", http.MethodPost, ts.URL + "/analyze", []byte(`{}`),
			http.StatusNotFound, "not_found"},
		{"run unknown analysis", http.MethodPost, ts.URL + "/run/nope", []byte(`{}`),
			http.StatusNotFound, CodeUnknownAnaly},
		{"run bad digest", http.MethodPost, ts.URL + "/run/diff",
			[]byte(`{"traces":{"left":"xx","right":"yy"}}`), http.StatusBadRequest, CodeBadRequest},
		{"run missing role", http.MethodPost, ts.URL + "/run/diff",
			[]byte(`{"traces":{"left":"` + gi.ID + `"}}`), http.StatusBadRequest, CodeBadRequest},
		{"run missing class param", http.MethodPost, ts.URL + "/run/protocol",
			[]byte(`{"traces":{"trace":"` + gi.ID + `"}}`), http.StatusBadRequest, CodeBadRequest},
		// Routing-layer errors must wear the envelope too — these are the
		// responses Go's mux would otherwise emit as plain text.
		{"unknown endpoint", http.MethodGet, ts.URL + "/nope", nil, http.StatusNotFound, "not_found"},
		{"method not allowed", http.MethodDelete, ts.URL + "/traces", nil,
			http.StatusMethodNotAllowed, "method_not_allowed"},
	}
	for _, tc := range cases {
		status, raw := doJSON(t, tc.method, tc.url, tc.body, nil)
		if status != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, status, tc.want, raw)
		}
		assertErrEnvelope(t, raw, tc.code)
	}
}

// TestConcurrentDiffsSingleFlight fans out identical diff requests and
// checks the web cache built each side exactly once.
func TestConcurrentDiffsSingleFlight(t *testing.T) {
	good, bad := tracePair(t)
	ts, srv := newTestServer(t, Options{Workers: 8})
	gi := upload(t, ts, good)
	bi := upload(t, ts, bad)

	const G = 8
	results := make([]DiffResponse, G)
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if status, raw := runDiff(t, ts.URL, gi.ID, bi.ID, 0, &results[g]); status != http.StatusOK {
				t.Errorf("goroutine %d: status %d: %s", g, status, raw)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < G; g++ {
		if results[g].NumDiffs != results[0].NumDiffs || results[g].NumSequences != results[0].NumSequences {
			t.Errorf("goroutine %d diverged: %d/%d vs %d/%d", g,
				results[g].NumDiffs, results[g].NumSequences, results[0].NumDiffs, results[0].NumSequences)
		}
	}
	var stats StatsResponse
	if status, raw := doJSON(t, http.MethodGet, ts.URL+"/stats", nil, &stats); status != http.StatusOK {
		t.Fatalf("stats: %d %s", status, raw)
	}
	if stats.Corpus.WebCache.Misses != 2 {
		t.Errorf("web builds = %d under %d concurrent diffs, want 2 (single-flight)", stats.Corpus.WebCache.Misses, G)
	}
	if stats.Corpus.Traces != 2 || stats.Symbols.Distinct == 0 {
		t.Errorf("stats sanity: %+v", stats)
	}
	if stats.Server.Requests == 0 || stats.Server.Workers != 8 {
		t.Errorf("server stats: %+v", stats.Server)
	}
	_ = srv
}

// TestWorkerPoolRejectsWhenSaturated holds every worker slot and checks
// the next analysis request is bounced with 503 rather than queued
// forever.
func TestWorkerPoolRejectsWhenSaturated(t *testing.T) {
	good, _ := tracePair(t)
	ts, srv := newTestServer(t, Options{Workers: 1, QueueTimeout: 50 * time.Millisecond})
	gi := upload(t, ts, good)

	srv.sem <- struct{}{} // occupy the only worker
	defer func() { <-srv.sem }()
	status, raw := doJSON(t, http.MethodGet, ts.URL+"/traces/"+gi.ID+"/views", nil, nil)
	if status != http.StatusServiceUnavailable {
		t.Errorf("saturated pool returned %d: %s", status, raw)
	}
}

func TestGracefulShutdown(t *testing.T) {
	store, err := corpus.New(t.TempDir(), corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(rprism.NewEngine(rprism.WithCorpus(store)), Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln, 5*time.Second) }()

	url := "http://" + ln.Addr().String() + "/healthz"
	if status, _ := doJSON(t, http.MethodGet, url, nil, nil); status != http.StatusOK {
		t.Fatalf("healthz: %d", status)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	if _, err := http.Get(url); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestAnalysesEndpoint checks discovery lists every built-in analysis.
func TestAnalysesEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	var list []rprism.AnalysisInfo
	status, raw := doJSON(t, http.MethodGet, ts.URL+"/analyses", nil, &list)
	if status != http.StatusOK {
		t.Fatalf("analyses: %d %s", status, raw)
	}
	if len(list) < 5 {
		t.Fatalf("only %d analyses listed: %s", len(list), raw)
	}
	have := make(map[string]rprism.AnalysisInfo)
	for _, a := range list {
		have[a.Name] = a
	}
	for _, want := range []string{"diff", "regression", "protocol", "typestate", "impact"} {
		a, ok := have[want]
		if !ok {
			t.Errorf("analysis %q not listed", want)
			continue
		}
		if a.Doc == "" || len(a.Roles) == 0 {
			t.Errorf("analysis %q missing metadata: %+v", want, a)
		}
	}
}

// TestRunDiffMatchesLegacyEndpoint checks the migration of a former
// GET /diff?left=L&right=R&max=N caller: POST /run/diff with the same
// refs as the left/right roles and max_sequences=N answers in the same
// wire form — labels echoing the refs, N sequences rendered and the rest
// counted, a negative N rendering all, 20 by default.
func TestRunDiffMatchesLegacyEndpoint(t *testing.T) {
	good, bad := tracePair(t)
	ts, _ := newTestServer(t, Options{})
	gi := upload(t, ts, good)
	bi := upload(t, ts, bad)

	var all DiffResponse
	if status, raw := runDiff(t, ts.URL, gi.ID, bi.ID, -1, &all); status != http.StatusOK {
		t.Fatalf("run diff: %d %s", status, raw)
	}
	if all.Left != gi.ID || all.Right != bi.ID {
		t.Errorf("labels %q/%q, want the request refs %q/%q", all.Left, all.Right, gi.ID, bi.ID)
	}
	if all.NumSequences < 3 || len(all.Sequences) != all.NumSequences || all.MoreSequences != 0 {
		t.Fatalf("max_sequences=-1 must render every sequence: %d of %d (+%d)",
			len(all.Sequences), all.NumSequences, all.MoreSequences)
	}
	var two DiffResponse
	if status, raw := runDiff(t, ts.URL, gi.ID, bi.ID, 2, &two); status != http.StatusOK {
		t.Fatalf("run diff: %d %s", status, raw)
	}
	if len(two.Sequences) != 2 || two.MoreSequences != all.NumSequences-2 || two.NumDiffs != all.NumDiffs {
		t.Errorf("max_sequences=2: %d rendered, %d more, %d diffs; want 2, %d, %d",
			len(two.Sequences), two.MoreSequences, two.NumDiffs, all.NumSequences-2, all.NumDiffs)
	}
	var def DiffResponse
	if status, raw := runDiff(t, ts.URL, gi.ID, bi.ID, 0, &def); status != http.StatusOK {
		t.Fatalf("run diff: %d %s", status, raw)
	}
	if want := min(all.NumSequences, 20); len(def.Sequences) != want {
		t.Errorf("default renders %d sequences, want %d", len(def.Sequences), want)
	}
}

// TestRunRegressionMatchesLegacyEndpoint checks the migration of a
// former POST /analyze caller: its four digest fields become the
// /run/regression trace roles, "removal" moves into params, and
// max_sequences keeps its meaning. The removal-mode answer must match
// the library's (A − B) − C on the same traces.
func TestRunRegressionMatchesLegacyEndpoint(t *testing.T) {
	good, bad := tracePair(t)
	ts, _ := newTestServer(t, Options{})
	gi := upload(t, ts, good)
	bi := upload(t, ts, bad)

	body, _ := json.Marshal(RunRequest{
		Traces: map[string]string{
			"orig_correct": gi.ID, "new_correct": gi.ID, "orig_regr": gi.ID, "new_regr": bi.ID,
		},
		Params:  json.RawMessage(`{"removal": true}`),
		MaxSeqs: 1,
	})
	var got AnalyzeResponse
	status, raw := doJSON(t, http.MethodPost, ts.URL+"/run/regression", body, &got)
	if status != http.StatusOK {
		t.Fatalf("run regression: %d %s", status, raw)
	}

	a := diff.ViewDiff(good, bad, diff.ViewOptions{})
	b := diff.ViewDiff(good, good, diff.ViewOptions{})
	c := diff.ViewDiff(good, bad, diff.ViewOptions{})
	want := regression.Combine(a, b, c, true)
	if got.Sizes != want.Sizes || got.Candidates != len(want.D) || got.Report != want.Report(1) {
		t.Errorf("removal-mode regression: got sizes=%+v candidates=%d, want %+v %d\n%s\nwant report:\n%s",
			got.Sizes, got.Candidates, want.Sizes, len(want.D), got.Report, want.Report(1))
	}
}

// TestRunPluggableAnalyses drives the registry-only analyses (no legacy
// endpoint ever existed for them) through the generic route.
func TestRunPluggableAnalyses(t *testing.T) {
	good, bad := tracePair(t)
	ts, _ := newTestServer(t, Options{})
	gi := upload(t, ts, good)
	bi := upload(t, ts, bad)

	// protocol: infer the Machine class's protocol out of the trace.
	body, _ := json.Marshal(RunRequest{
		Traces: map[string]string{"trace": gi.ID},
		Params: json.RawMessage(`{"class": "Machine"}`),
	})
	var protoResp struct {
		Analysis string `json:"analysis"`
		Result   struct {
			Class   string `json:"Class"`
			Objects int    `json:"Objects"`
		} `json:"result"`
	}
	status, raw := doJSON(t, http.MethodPost, ts.URL+"/run/protocol", body, &protoResp)
	if status != http.StatusOK {
		t.Fatalf("run protocol: %d %s", status, raw)
	}
	if protoResp.Analysis != "protocol" || protoResp.Result.Class != "Machine" {
		t.Errorf("protocol result: %s", raw)
	}

	// impact: renders through the generic wrapper with a ranked surface.
	body, _ = json.Marshal(RunRequest{Traces: map[string]string{"left": gi.ID, "right": bi.ID}})
	var impactResp struct {
		Analysis string `json:"analysis"`
		Result   struct {
			Total int `json:"Total"`
		} `json:"result"`
	}
	status, raw = doJSON(t, http.MethodPost, ts.URL+"/run/impact", body, &impactResp)
	if status != http.StatusOK {
		t.Fatalf("run impact: %d %s", status, raw)
	}
	if impactResp.Result.Total == 0 {
		t.Errorf("impact surface empty: %s", raw)
	}

	// typestate: an over-permissive protocol yields zero violations.
	body, _ = json.Marshal(RunRequest{
		Traces: map[string]string{"trace": gi.ID},
		Params: json.RawMessage(`{"class": "NoSuchClass", "allowed": {}}`),
	})
	var tsResp struct {
		Analysis string            `json:"analysis"`
		Result   []json.RawMessage `json:"result"`
	}
	status, raw = doJSON(t, http.MethodPost, ts.URL+"/run/typestate", body, &tsResp)
	if status != http.StatusOK {
		t.Fatalf("run typestate: %d %s", status, raw)
	}
	if tsResp.Result == nil {
		t.Errorf("typestate result not a JSON array: %s", raw)
	}
}

// slowServerPair builds a trace pair whose views-based diff runs for
// seconds uncancelled: single-threaded, wholly dissimilar, so every
// divergence pays escalating correspondence scans.
func slowServerPair(n int) (*trace.Trace, *trace.Trace) {
	mk := func(side string) *trace.Trace {
		tr := trace.New(side)
		for i := 0; i < n; i++ {
			m := fmt.Sprintf("%s.m%d/0", side, i)
			tr.Append(1, m, trace.Repr{}, trace.Event{Kind: trace.KindCall, Member: m})
		}
		return tr
	}
	return mk("TimeoutL"), mk("TimeoutR")
}

// TestServerRequestTimeout checks the server-side deadline kills a
// runaway diff promptly with the 504 envelope instead of letting it run
// for seconds. Run under -race in CI.
func TestServerRequestTimeout(t *testing.T) {
	store, err := corpus.New(t.TempDir(), corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, r := slowServerPair(12000)
	lid, _, err := store.Put(l)
	if err != nil {
		t.Fatal(err)
	}
	rid, _, err := store.Put(r)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(rprism.NewEngine(rprism.WithCorpus(store)), Options{RequestTimeout: 100 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	start := time.Now()
	status, raw := runDiff(t, ts.URL, lid.String(), rid.String(), 0, nil)
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("runaway diff: status %d (in %v): %s", status, elapsed, raw)
	}
	assertErrEnvelope(t, raw, CodeTimeout)
	// Uncancelled this diff runs for seconds; the deadline must bound it
	// near the 100ms budget (slack for -race and web building).
	if elapsed > 3*time.Second {
		t.Errorf("timed-out request returned after %v", elapsed)
	}

	var stats StatsResponse
	if status, raw := doJSON(t, http.MethodGet, ts.URL+"/stats", nil, &stats); status != http.StatusOK {
		t.Fatalf("stats: %d %s", status, raw)
	}
	if stats.Server.Timeouts == 0 {
		t.Error("timeout not counted in server stats")
	}
}

// TestDiffParallelismKnob drives the serve wiring of the intra-diff
// worker knob end to end: the engine default shows up in /stats, and a
// per-request "parallelism" param changes scheduling but never the
// response — compares included.
func TestDiffParallelismKnob(t *testing.T) {
	good, bad := tracePair(t)
	store, err := corpus.New(t.TempDir(), corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The rprism-serve wiring: request pool mirrored into the engine's
	// worker budget so intra-diff workers are clamped to the same slots.
	srv := New(rprism.NewEngine(rprism.WithCorpus(store),
		rprism.WithWorkers(4), rprism.WithDiffParallelism(4)), Options{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	gi := upload(t, ts, good)
	bi := upload(t, ts, bad)

	var base DiffResponse
	if status, raw := runDiff(t, ts.URL, gi.ID, bi.ID, 0, &base); status != http.StatusOK {
		t.Fatalf("diff: %d %s", status, raw)
	}
	for _, par := range []int{1, 8} {
		body, _ := json.Marshal(map[string]any{
			"traces": map[string]string{"left": gi.ID, "right": bi.ID},
			"params": map[string]int{"parallelism": par},
		})
		var res DiffResponse
		if status, raw := doJSON(t, http.MethodPost, ts.URL+"/run/diff", body, &res); status != http.StatusOK {
			t.Fatalf("run/diff parallelism=%d: %d %s", par, status, raw)
		}
		if res.NumDiffs != base.NumDiffs || res.NumSequences != base.NumSequences ||
			res.Compares != base.Compares {
			t.Errorf("parallelism=%d diverged from default: %d diffs/%d seqs/%d compares vs %d/%d/%d",
				par, res.NumDiffs, res.NumSequences, res.Compares,
				base.NumDiffs, base.NumSequences, base.Compares)
		}
	}

	var stats StatsResponse
	if status, raw := doJSON(t, http.MethodGet, ts.URL+"/stats", nil, &stats); status != http.StatusOK {
		t.Fatalf("stats: %d %s", status, raw)
	}
	if stats.Server.DiffParallelism != 4 {
		t.Errorf("stats diff_parallelism = %d, want 4", stats.Server.DiffParallelism)
	}
}

// TestUploadSniffsFormats uploads the same trace in both accepted
// encodings, RSEG and JSONL; each must land on the identical content
// digest (the digest is format-independent), the second deduplicating.
// A gob body — the file format of earlier releases — and random bytes
// are refused with 400 bad_request, and nothing is stored for them.
func TestUploadSniffsFormats(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	tr, _ := tracePair(t)

	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	bodies := [][]byte{rsegBytes(t, tr), jsonl.Bytes()}

	var first TraceInfo
	for i, body := range bodies {
		var info TraceInfo
		status, raw := doJSON(t, http.MethodPut, ts.URL+"/traces", body, &info)
		switch {
		case i == 0 && status != http.StatusCreated:
			t.Fatalf("rseg upload: status %d: %s", status, raw)
		case i > 0 && status != http.StatusOK:
			t.Fatalf("upload %d should deduplicate (200), got %d: %s", i, status, raw)
		}
		if i == 0 {
			first = info
		} else if info.ID != first.ID {
			t.Fatalf("format %d digest %s != rseg digest %s", i, info.ID, first.ID)
		}
	}
	if _, raw := doJSON(t, http.MethodGet, ts.URL+"/traces/"+first.ID, nil, nil); raw == "" {
		t.Fatal("stored trace not retrievable")
	}

	for name, body := range map[string][]byte{
		"gob":    gobUpload(t, tr),
		"random": randomBytes(1 << 16),
	} {
		status, raw := doJSON(t, http.MethodPut, ts.URL+"/traces", body, nil)
		if status != http.StatusBadRequest {
			t.Fatalf("%s upload: status %d, want 400: %s", name, status, raw)
		}
		assertErrEnvelope(t, raw, CodeBadRequest)
	}
	var list []TraceInfo
	if status, raw := doJSON(t, http.MethodGet, ts.URL+"/traces", nil, &list); status != http.StatusOK || len(list) != 1 {
		t.Fatalf("rejected uploads changed the corpus: %d %s", status, raw)
	}
}

// gobUpload encodes a trace with encoding/gob, as `rprism trace -out`
// wrote files before RSEG.
func gobUpload(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomBytes returns n bytes from a fixed-seed generator.
func randomBytes(n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(b)
	return b
}
