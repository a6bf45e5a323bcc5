// Package server exposes the trace corpus and the analysis engine over
// an HTTP JSON API — the long-running service face of the repo
// (rprism-serve). Traces are uploaded once as RSEG (as written by
// `rprism trace`) or JSONL — the encoding is sniffed, and any other body
// is a 400 — then addressed by content digest for any number of
// analysis queries; heavy work runs under a bounded worker pool so a
// burst of requests degrades to queueing, not to unbounded goroutines
// each building webs, and every analysis runs under the request's
// context (plus an optional server-side deadline) so canceled or
// runaway requests stop burning CPU.
//
// Analyses dispatch through the rprism registry: any analysis registered
// with rprism.Register is served at POST /run/{analysis} and listed by
// GET /analyses without touching this package.
//
// Diff-flavored analyses additionally parallelize inside one request:
// the engine evaluates correlated thread-view pairs on intra-diff
// workers (rprism.WithDiffParallelism, or a per-request "parallelism"
// param) drawn from the same slot budget as the engine's worker bound,
// so a busy server degrades diffs toward serial instead of
// oversubscribing the machine. GET /stats reports the configured
// default.
//
// Live capture streams in through POST /traces/stream (the NDJSON
// segment-frame protocol of internal/capture): frames build append-open
// corpus sessions whose view webs extend incrementally, so analyses can
// reference a still-running program as "session:<id>" wherever a trace
// digest is accepted; the stream's close frame finalizes the session
// into an ordinary content-addressed trace.
//
// Watches (POST /watches) attach always-on regression sentinels to live
// sessions: the sentinel re-diffs the session against a pinned baseline
// incrementally after every appended segment, and the first non-empty
// candidate set emits a structured divergence event to the watch's SSE
// stream (GET /watches/{id}/events) and optional webhook. See
// internal/sentinel for the event model and delivery semantics.
//
// Endpoints:
//
//	PUT  /traces                 upload a trace (body: RSEG or JSONL)
//	POST /traces/stream          stream live capture frames (NDJSON)
//	GET  /traces                 list stored traces
//	GET  /traces/{id}            metadata of one trace
//	GET  /traces/{id}/views      view-web summary (counts + largest views)
//	GET  /sessions               list open capture sessions
//	GET  /sessions/{id}          one session (entry count = resume point)
//	DELETE /sessions/{id}        abort a session without storing it
//	GET  /analyses               list registered analyses
//	POST /run/{analysis}         run any registered analysis (JSON body)
//	POST /watches                attach a sentinel watch to a session (JSON body)
//	GET  /watches                list attached watches
//	GET  /watches/{id}           one watch (divergence + evaluation state)
//	DELETE /watches/{id}         detach a watch (emits terminal event)
//	GET  /watches/{id}/events    per-watch SSE event stream (?after=N replay)
//	GET  /stats                  corpus, cache, symbol, session, sentinel, server stats
//	GET  /index/stats            similarity-index coverage (sketches, LSH buckets, provenance)
//	GET  /healthz                liveness + open-session counts
//
// The built-in analyses (diff, regression, and the corpus-scale search,
// cluster, flaky) all dispatch through POST /run/{analysis}: trace
// references in its body are content digests, git-style short digest
// prefixes, or "session:<id>" for a live capture.
//
// Every error response is the JSON envelope
// {"error": {"code": "...", "message": "..."}} — including the 404/405
// responses the routing layer itself produces.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	rprism "repro"
	"repro/internal/capture"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/diff"
	"repro/internal/metrics"
	"repro/internal/regression"
	"repro/internal/trace"
)

// Options configure a Server.
type Options struct {
	// Workers bounds concurrently executing heavy analyses (view builds,
	// diffs, regressions). Default 4.
	Workers int
	// MaxUploadBytes caps PUT /traces request bodies (default 256 MiB).
	MaxUploadBytes int64
	// QueueTimeout is how long a request waits for a worker slot before
	// 503 (default 30s).
	QueueTimeout time.Duration
	// RequestTimeout caps one analysis request's execution once it holds
	// a worker slot; exceeding it aborts the analysis mid-loop (the
	// engine honors the context in its hot paths) and returns 504.
	// Zero means no server-side deadline.
	RequestTimeout time.Duration
	// Cluster, when non-nil, runs the server as one node of a
	// digest-sharded ring: requests for traces another node owns
	// forward there (one hop), /cluster/stats aggregates the ring, and
	// every response names the serving node in X-Rprism-Node. The
	// corpus should share a blob bucket with the other nodes — the
	// bucket is the fallback when an owner is down.
	Cluster *cluster.Cluster
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 256 << 20
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 30 * time.Second
	}
	return o
}

// Server serves the engine's corpus and analyses. Create with New, mount
// via Handler.
type Server struct {
	eng   *rprism.Engine
	store *corpus.Store
	opts  Options
	sem   chan struct{}

	// streams maps open capture-session ids to their wire decoders
	// (the protocol state of POST /traces/stream; the sessions
	// themselves live in the corpus store). finished holds bounded
	// tombstones of finalized sessions so retried close requests are
	// answered idempotently instead of 404ing.
	streamMu      sync.Mutex
	streams       map[string]*streamState
	finished      map[string]capture.StreamTraceInfo
	finishedOrder []string

	// cl is the node's cluster view (nil outside cluster mode).
	cl *cluster.Cluster

	requests atomic.Int64
	rejected atomic.Int64 // queue-timeout 503s
	timeouts atomic.Int64 // request-deadline 504s
}

// New wraps an analysis engine in a server. The engine must be
// corpus-backed (rprism.WithCorpus): uploads land in its store and
// digest-addressed sources resolve through it.
func New(eng *rprism.Engine, opts Options) *Server {
	store := eng.Corpus()
	if store == nil {
		panic("server: engine has no corpus (construct it rprism.WithCorpus)")
	}
	opts = opts.withDefaults()
	return &Server{
		eng:     eng,
		store:   store,
		opts:    opts,
		sem:     make(chan struct{}, opts.Workers),
		streams: make(map[string]*streamState),
		cl:      opts.Cluster,
	}
}

// Engine returns the server's engine.
func (s *Server) Engine() *rprism.Engine { return s.eng }

// Handler returns the routing handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /traces", s.handlePutTrace)
	mux.HandleFunc("POST /traces", s.handlePutTrace)
	mux.HandleFunc("POST /traces/stream", s.handleStream)
	mux.HandleFunc("GET /traces", s.handleListTraces)
	mux.HandleFunc("GET /traces/{id}", s.handleGetTrace)
	mux.HandleFunc("GET /traces/{id}/views", s.handleGetViews)
	mux.HandleFunc("GET /sessions", s.handleSessions)
	mux.HandleFunc("GET /sessions/{id}", s.handleGetSession)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleAbortSession)
	mux.HandleFunc("GET /analyses", s.handleAnalyses)
	mux.HandleFunc("POST /run/{analysis}", s.handleRun)
	mux.HandleFunc("POST /watches", s.handleCreateWatch)
	mux.HandleFunc("GET /watches", s.handleListWatches)
	mux.HandleFunc("GET /watches/{id}", s.handleGetWatch)
	mux.HandleFunc("DELETE /watches/{id}", s.handleDeleteWatch)
	mux.HandleFunc("GET /watches/{id}/events", s.handleWatchEvents)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /cluster/stats", s.handleClusterStats)
	mux.HandleFunc("GET /index/stats", s.handleIndexStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		sessions := s.store.Sessions()
		entries := 0
		for _, info := range sessions {
			entries += info.Entries
		}
		writeJSON(w, http.StatusOK, HealthResponse{
			Status:         "ok",
			NodeID:         s.nodeID(),
			OpenSessions:   len(sessions),
			SessionEntries: entries,
		})
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if s.cl != nil {
			// Name the serving node on every response; a forwarded
			// response overwrites this with the peer that actually served.
			w.Header().Set(cluster.NodeHeader, s.cl.Self().ID)
		}
		// The mux's own 404/405 responses are plain text; interpose so
		// every error that leaves this server wears the JSON envelope.
		mux.ServeHTTP(&jsonErrorWriter{ResponseWriter: w}, r)
	})
}

// jsonErrorWriter rewrites plain-text error responses originating in the
// routing layer (404 page not found, 405 method not allowed) into the
// standard JSON envelope. Handler-produced errors already set an
// application/json content type and pass through untouched.
type jsonErrorWriter struct {
	http.ResponseWriter
	intercepted bool
}

func (w *jsonErrorWriter) WriteHeader(status int) {
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		w.Header().Get("Content-Type") != "application/json" {
		w.intercepted = true
		code, msg := "not_found", "no such endpoint"
		if status == http.StatusMethodNotAllowed {
			code, msg = "method_not_allowed", "method not allowed for this endpoint"
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Del("X-Content-Type-Options")
		w.ResponseWriter.WriteHeader(status)
		_ = json.NewEncoder(w.ResponseWriter).Encode(errorResponse{Error: ErrorBody{Code: code, Message: msg}})
		return
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *jsonErrorWriter) Write(b []byte) (int, error) {
	if w.intercepted {
		return len(b), nil // swallow the plain-text body; the envelope is out
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer so http.ResponseController can
// reach Flush — SSE streaming depends on it.
func (w *jsonErrorWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ListenAndServe runs the server until ctx is canceled, then shuts down
// gracefully: the listener closes immediately, in-flight requests get
// grace to finish.
func (s *Server) ListenAndServe(ctx context.Context, addr string, grace time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return s.Serve(ctx, ln, grace)
}

// Serve runs the server on an existing listener until ctx is canceled,
// then shuts down gracefully within the grace period. The listener is
// closed on return.
func (s *Server) Serve(ctx context.Context, ln net.Listener, grace time.Duration) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	// Detach watches first: each emits its terminal event, so open SSE
	// streams drain and end instead of pinning Shutdown until the grace
	// deadline. Pending webhook deliveries also finish here.
	s.eng.Close()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	<-errc // always http.ErrServerClosed after Shutdown
	return nil
}

// acquire claims a worker slot, failing with 503 if none frees up within
// the queue timeout (or the client goes away first).
func (s *Server) acquire(r *http.Request) error {
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.QueueTimeout)
	defer cancel()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.rejected.Add(1)
		return fmt.Errorf("analysis queue full (workers=%d)", s.opts.Workers)
	}
}

func (s *Server) release() { <-s.sem }

// analysisCtx derives the context an analysis runs under: the request's
// own (canceled when the client disconnects) plus the server-side
// deadline, when configured.
func (s *Server) analysisCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	}
	return r.Context(), func() {}
}

// ---- wire types ----

// TraceInfo is the JSON form of a stored trace's metadata.
type TraceInfo struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Entries  int    `json:"entries"`
	Segments int    `json:"segments"`
	Created  bool   `json:"created,omitempty"` // false: deduplicated
}

// ViewsSummary summarizes a trace's view web.
type ViewsSummary struct {
	ID     string      `json:"id"`
	Counts ViewCounts  `json:"counts"`
	Views  []ViewEntry `json:"views,omitempty"`
}

// ViewCounts mirrors views.Counts.
type ViewCounts struct {
	Total        int `json:"total"`
	Thread       int `json:"thread"`
	Method       int `json:"method"`
	TargetObject int `json:"target_object"`
	ActiveObject int `json:"active_object"`
}

// ViewEntry names one view and its size.
type ViewEntry struct {
	Type    string `json:"type"`
	Key     string `json:"key"`
	Entries int    `json:"entries"`
}

// DiffSequence is one difference sequence, entries rendered.
type DiffSequence struct {
	Kind  string   `json:"kind"`
	Left  []string `json:"left,omitempty"`
	Right []string `json:"right,omitempty"`
}

// DiffResponse is the wire form of a diff result.
type DiffResponse struct {
	Left          string         `json:"left"`
	Right         string         `json:"right"`
	NumDiffs      int            `json:"num_diffs"`
	DiffLeft      int            `json:"diff_left"`
	DiffRight     int            `json:"diff_right"`
	NumSequences  int            `json:"num_sequences"`
	Sequences     []DiffSequence `json:"sequences"`
	MoreSequences int            `json:"more_sequences,omitempty"`
	Compares      int64          `json:"compares"`
	Explorations  int64          `json:"explorations"`
}

// AnalyzeResponse reports the candidate set.
type AnalyzeResponse struct {
	Sizes      regression.SetSizes `json:"sizes"`
	Candidates int                 `json:"candidates"`
	Related    []int               `json:"related_sequences"`
	Report     string              `json:"report"`
}

// RunRequest is the generic invocation body of POST /run/{analysis}:
// role-named trace digests plus analysis-specific params passed through
// to the registry verbatim.
type RunRequest struct {
	Traces  map[string]string `json:"traces"`
	Params  json.RawMessage   `json:"params,omitempty"`
	MaxSeqs int               `json:"max_sequences,omitempty"`
}

// RunResponse wraps a registered analysis's result when it has no
// dedicated wire form.
type RunResponse struct {
	Analysis string `json:"analysis"`
	Result   any    `json:"result"`
}

// HealthResponse is the /healthz liveness payload, including the live
// ingestion picture at a glance.
type HealthResponse struct {
	Status         string `json:"status"`
	NodeID         string `json:"node_id,omitempty"`
	OpenSessions   int    `json:"open_sessions"`
	SessionEntries int    `json:"session_entries"`
}

// StatsResponse aggregates every statistics source.
type StatsResponse struct {
	Corpus  corpus.Stats      `json:"corpus"`
	Symbols trace.SymbolStats `json:"symbols"`
	Server  ServerStats       `json:"server"`
	// Sessions lists the open capture sessions with per-session entry
	// counts (always present, [] when none are open).
	Sessions []corpus.SessionInfo `json:"sessions"`
	// Sentinel counts watch activity: attached watches, evaluations run
	// and coalesced, the dirty-pair ratio of incremental re-diffs,
	// divergences, and webhook deliveries.
	Sentinel metrics.SentinelSnapshot `json:"sentinel"`
	// Cluster is present only in cluster mode: this node's identity and
	// its forwarding/fallback counters.
	Cluster *ClusterInfo `json:"cluster,omitempty"`
}

// ServerStats counts request handling.
type ServerStats struct {
	Workers int `json:"workers"`
	// DiffParallelism is the engine's default intra-diff worker count
	// (0 = GOMAXPROCS). Per-request "parallelism" params and the shared
	// worker budget can both lower what a given diff actually gets.
	DiffParallelism int   `json:"diff_parallelism"`
	InFlight        int   `json:"in_flight"`
	Requests        int64 `json:"requests"`
	Rejected        int64 `json:"rejected"`
	Timeouts        int64 `json:"timeouts"`
}

// ErrorBody is the uniform error payload: a stable machine-readable code
// plus a human-readable message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorResponse struct {
	Error ErrorBody `json:"error"`
}

// Error codes used across all endpoints.
const (
	CodeBadRequest      = "bad_request"
	CodeNotFound        = "not_found"
	CodeTooLarge        = "too_large"
	CodeQueueFull       = "queue_full"
	CodeTimeout         = "timeout"
	CodeCanceled        = "canceled"
	CodeInternal        = "internal"
	CodeUnknownAnaly    = "unknown_analysis"
	CodeSessionClosed   = "session_closed"
	CodeTooManySessions = "too_many_sessions"
)

// ---- handlers ----

func (s *Server) handlePutTrace(w http.ResponseWriter, r *http.Request) {
	// Uploads go through the worker pool too: decoding holds a full
	// trace in memory and Put serializes on the store's write lock, so
	// a burst must queue-then-503 like any other heavy request.
	if err := s.acquire(r); err != nil {
		writeErr(w, http.StatusServiceUnavailable, CodeQueueFull, err)
		return
	}
	defer s.release()
	// Buffered (not streamed) so cluster mode can replay the exact body
	// to the digest owner once the digest is known.
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
				fmt.Errorf("trace exceeds the %d-byte upload limit", tooBig.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("reading upload: %w", err))
		return
	}
	t, err := trace.ReadAny("upload", bytes.NewReader(raw))
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("body is not a trace file (write one with 'rprism trace'): %w", err))
		return
	}
	if t.Len() == 0 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, errors.New("refusing to store an empty trace"))
		return
	}
	if s.cl != nil {
		t.EnsureSyms()
		if s.maybeForward(w, r, raw, t.ComputeDigest().String()) {
			return
		}
	}
	id, created, err := s.store.Put(t)
	if err != nil {
		if errors.Is(err, corpus.ErrInvalidTrace) {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
			return
		}
		writeErr(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	m, err := s.store.Meta(id)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, TraceInfo{
		ID: m.ID, Name: m.Name, Entries: m.Entries, Segments: m.Segments, Created: created,
	})
}

func (s *Server) handleListTraces(w http.ResponseWriter, r *http.Request) {
	metas := s.store.List()
	if s.store.HasBlob() {
		// With a blob tier, the listing is the whole shared corpus —
		// bucket-resident traces included — so every node of a cluster
		// reports the same inventory. A bucket outage degrades to the
		// local view rather than failing the listing.
		if all, err := s.store.ListAll(r.Context()); err == nil {
			metas = all
		}
	}
	out := make([]TraceInfo, len(metas))
	for i, m := range metas {
		out[i] = TraceInfo{ID: m.ID, Name: m.Name, Entries: m.Entries, Segments: m.Segments}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	id, ok := s.pathDigest(w, r)
	if !ok {
		return
	}
	if s.maybeForward(w, r, nil, id.String()) {
		return
	}
	m, err := s.store.Meta(id)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, TraceInfo{ID: m.ID, Name: m.Name, Entries: m.Entries, Segments: m.Segments})
}

func (s *Server) handleGetViews(w http.ResponseWriter, r *http.Request) {
	id, ok := s.pathDigest(w, r)
	if !ok {
		return
	}
	if s.maybeForward(w, r, nil, id.String()) {
		return
	}
	if err := s.acquire(r); err != nil {
		writeErr(w, http.StatusServiceUnavailable, CodeQueueFull, err)
		return
	}
	defer s.release()
	ctx, cancel := s.analysisCtx(r)
	defer cancel()
	web, err := s.eng.Views(ctx, rprism.FromCorpus(id))
	if err != nil {
		s.writeAnalysisErr(w, err)
		return
	}
	c := web.Count()
	resp := ViewsSummary{
		ID: id.String(),
		Counts: ViewCounts{Total: c.Total, Thread: c.Thread, Method: c.Method,
			TargetObject: c.TargetObject, ActiveObject: c.ActiveObject},
	}
	// Largest views first (Names() order breaks size ties, keeping the
	// listing deterministic), truncated to ?max=.
	for _, n := range web.Names() {
		resp.Views = append(resp.Views, ViewEntry{
			Type: n.Type.String(), Key: n.KeyString(), Entries: web.View(n).Len(),
		})
	}
	sort.SliceStable(resp.Views, func(i, j int) bool {
		return resp.Views[i].Entries > resp.Views[j].Entries
	})
	if maxViews := intQuery(r, "max", 50); maxViews >= 0 && len(resp.Views) > maxViews {
		resp.Views = resp.Views[:maxViews]
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAnalyses lists the registered analyses — service discovery for
// generic clients.
func (s *Server) handleAnalyses(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rprism.Analyses())
}

// handleRun is the generic analysis endpoint: any analysis in the
// rprism registry, invoked with role-named corpus digests. Diff and
// regression results render in their dedicated wire forms (DiffResponse,
// AnalyzeResponse); anything else is marshaled verbatim inside a
// RunResponse.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("analysis")
	if _, ok := rprism.LookupAnalysis(name); !ok {
		writeErr(w, http.StatusNotFound, CodeUnknownAnaly,
			fmt.Errorf("unknown analysis %q (GET /analyses lists the registered ones)", name))
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	var req RunRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	if s.cl != nil {
		// Route by the request's trace refs, role order made deterministic
		// so every node picks the same owning digest.
		roles := make([]string, 0, len(req.Traces))
		for role := range req.Traces {
			roles = append(roles, role)
		}
		sort.Strings(roles)
		refs := make([]string, len(roles))
		for i, role := range roles {
			refs[i] = req.Traces[role]
		}
		if s.maybeForward(w, r, raw, refs...) {
			return
		}
	}
	sources := make(map[string]rprism.Source, len(req.Traces))
	labels := make(map[string]string, len(req.Traces))
	for role, raw := range req.Traces {
		src, err := s.sourceRef(raw)
		if err != nil {
			if errors.Is(err, corpus.ErrSessionNotFound) || errors.Is(err, corpus.ErrNotFound) {
				writeErr(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("trace %q: %w", role, err))
				return
			}
			writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("trace %q: %w", role, err))
			return
		}
		sources[role] = src
		labels[role] = raw
	}
	if err := s.acquire(r); err != nil {
		writeErr(w, http.StatusServiceUnavailable, CodeQueueFull, err)
		return
	}
	defer s.release()
	ctx, cancel := s.analysisCtx(r)
	defer cancel()
	out, err := s.eng.RunAnalysis(ctx, name, rprism.AnalysisRequest{Sources: sources, Params: req.Params})
	if err != nil {
		s.writeAnalysisErr(w, err)
		return
	}
	maxSeqs := req.MaxSeqs
	left, hasLeft := labels["left"]
	right, hasRight := labels["right"]
	switch v := out.(type) {
	// The dedicated diff wire form names the compared traces (digests or
	// session references), so it only applies when the request actually
	// used the left/right roles; a custom analysis with other roles falls
	// through to the generic wrapper rather than reporting empty labels.
	case *rprism.DiffResult:
		if !hasLeft || !hasRight {
			writeJSON(w, http.StatusOK, RunResponse{Analysis: name, Result: v})
			return
		}
		if maxSeqs == 0 {
			maxSeqs = 20
		}
		writeJSON(w, http.StatusOK, diffResponse(left, right, v, maxSeqs))
	case *rprism.RegressionAnalysis:
		if _, ok := labels["orig_correct"]; !ok {
			// Same role guard as the diff case: the dedicated wire form
			// belongs to requests shaped like the four-trace protocol.
			writeJSON(w, http.StatusOK, RunResponse{Analysis: name, Result: v})
			return
		}
		if maxSeqs == 0 {
			maxSeqs = 10
		}
		writeJSON(w, http.StatusOK, analyzeResponse(v, maxSeqs))
	default:
		writeJSON(w, http.StatusOK, RunResponse{Analysis: name, Result: v})
	}
}

func diffResponse(left, right string, res *diff.Result, maxSeqs int) DiffResponse {
	resp := DiffResponse{
		Left: left, Right: right,
		NumDiffs: res.NumDiffs(), DiffLeft: len(res.DiffLeft), DiffRight: len(res.DiffRight),
		NumSequences: len(res.Sequences),
		Sequences:    []DiffSequence{},
		Compares:     res.Stats.Compares, Explorations: res.Stats.ViewExplorations,
	}
	for i, seq := range res.Sequences {
		if maxSeqs >= 0 && i >= maxSeqs {
			resp.MoreSequences = len(res.Sequences) - maxSeqs
			break
		}
		ds := DiffSequence{Kind: seq.Kind.String()}
		for _, eid := range seq.Left {
			ds.Left = append(ds.Left, res.Left.Entries[eid].String())
		}
		for _, eid := range seq.Right {
			ds.Right = append(ds.Right, res.Right.Entries[eid].String())
		}
		resp.Sequences = append(resp.Sequences, ds)
	}
	return resp
}

func analyzeResponse(an *regression.Analysis, maxSeqs int) AnalyzeResponse {
	return AnalyzeResponse{
		Sizes:      an.Sizes,
		Candidates: len(an.D),
		Related:    append([]int{}, an.Related...),
		Report:     an.Report(maxSeqs),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsResponse())
}

// statsResponse builds the /stats payload; /cluster/stats reuses it for
// the self node when aggregating across the ring.
func (s *Server) statsResponse() StatsResponse {
	sessions := s.store.Sessions()
	if sessions == nil {
		sessions = []corpus.SessionInfo{}
	}
	resp := StatsResponse{
		Corpus:   s.store.Stats(),
		Symbols:  s.eng.SymbolStats(),
		Sessions: sessions,
		Sentinel: s.eng.Sentinel().Counters().Snapshot(),
		Server: ServerStats{
			Workers:         s.opts.Workers,
			DiffParallelism: s.eng.DefaultDiffOptions().Parallelism,
			InFlight:        len(s.sem),
			Requests:        s.requests.Load(),
			Rejected:        s.rejected.Load(),
			Timeouts:        s.timeouts.Load(),
		},
	}
	if s.cl != nil {
		resp.Cluster = &ClusterInfo{
			NodeID:          s.cl.Self().ID,
			Peers:           len(s.cl.Peers()),
			ClusterSnapshot: s.cl.Counters().Snapshot(),
		}
	}
	return resp
}

// handleIndexStats reports similarity-index coverage: how many stored
// traces have resident sketches, the LSH bucket occupancy, and where
// the sketches came from (computed at Put, loaded from sidecars, or
// backfilled from trace entries).
func (s *Server) handleIndexStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.IndexStats())
}

// ---- helpers ----

func (s *Server) pathDigest(w http.ResponseWriter, r *http.Request) (trace.Digest, bool) {
	d, err := trace.ParseDigest(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return d, false
	}
	return d, true
}

func intQuery(r *http.Request, key string, def int) int {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

// writeAnalysisErr maps an engine/analysis error onto the envelope:
// store misses are 404, deadline expiry is 504, client cancellation a
// best-effort 499 (the client is usually gone), bad request payloads
// 400, everything else 500.
func (s *Server) writeAnalysisErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, corpus.ErrNotFound), errors.Is(err, corpus.ErrSessionNotFound):
		writeErr(w, http.StatusNotFound, CodeNotFound, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		writeErr(w, http.StatusGatewayTimeout, CodeTimeout,
			fmt.Errorf("analysis exceeded the %s request deadline", s.opts.RequestTimeout))
	case errors.Is(err, context.Canceled):
		writeErr(w, 499, CodeCanceled, errors.New("request canceled"))
	case errors.Is(err, rprism.ErrBadRequest):
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
	default:
		writeErr(w, http.StatusInternalServerError, CodeInternal, err)
	}
}

func writeStoreErr(w http.ResponseWriter, err error) {
	if errors.Is(err, corpus.ErrNotFound) {
		writeErr(w, http.StatusNotFound, CodeNotFound, err)
		return
	}
	writeErr(w, http.StatusInternalServerError, CodeInternal, err)
}

func writeErr(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorResponse{Error: ErrorBody{Code: code, Message: err.Error()}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to do on error
}
