package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	rprism "repro"
	"repro/internal/corpus"
	"repro/internal/sentinel"
	"repro/internal/trace"
)

// The watch surface: attach always-on regression sentinels to live
// capture sessions. A watch pins a stored baseline against a session
// and re-diffs incrementally on every appended segment; divergence
// events stream out over per-watch SSE connections
// (GET /watches/{id}/events) and the watch's optional webhook.

// ssePingInterval keeps idle event streams alive through proxies and
// lets dead client connections surface.
const ssePingInterval = 15 * time.Second

// WatchRequest is the POST /watches body.
type WatchRequest struct {
	// Session is the live session to watch: its id, with or without the
	// "session:" prefix the diff endpoints use.
	Session string `json:"session"`
	// Baseline is the pinned baseline's content digest.
	Baseline string `json:"baseline"`
	// Webhook receives divergence events as JSON POSTs (at-least-once).
	Webhook string `json:"webhook,omitempty"`
	// ExpectedOld/ExpectedNew name an expected-change trace pair whose
	// diff signatures are subtracted from the candidate set.
	ExpectedOld string `json:"expected_old,omitempty"`
	ExpectedNew string `json:"expected_new,omitempty"`
	// Parallelism overrides the intra-diff worker count of the watch's
	// evaluations.
	Parallelism int `json:"parallelism,omitempty"`
}

func (s *Server) handleCreateWatch(w http.ResponseWriter, r *http.Request) {
	var req WatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeBodyErr(w, "bad JSON body", err)
		return
	}
	if req.Session == "" || req.Baseline == "" {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			errors.New("a watch needs both \"session\" and \"baseline\""))
		return
	}
	if _, err := trace.ParseDigest(req.Baseline); err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("baseline: %w", err))
		return
	}
	// Attaching resolves the baseline web (and the optional
	// expected-change diff) — heavy work, so it queues like any other
	// analysis request. The watch itself is not bound to this request:
	// it lives until the session ends or DELETE /watches/{id}.
	if err := s.acquire(r); err != nil {
		writeErr(w, http.StatusServiceUnavailable, CodeQueueFull, err)
		return
	}
	defer s.release()
	ctx, cancel := s.analysisCtx(r)
	defer cancel()
	watch, err := s.eng.WatchSession(ctx, strings.TrimPrefix(req.Session, "session:"), rprismWatchConfig(req, s.eng.DefaultDiffOptions()))
	if err != nil {
		switch {
		case errors.Is(err, corpus.ErrSessionNotFound), errors.Is(err, corpus.ErrNotFound):
			writeErr(w, http.StatusNotFound, CodeNotFound, err)
		case errors.Is(err, sentinel.ErrMonitorClosed):
			writeErr(w, http.StatusServiceUnavailable, CodeInternal, err)
		default:
			s.writeAnalysisErr(w, err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, watch.Info())
}

func (s *Server) handleListWatches(w http.ResponseWriter, r *http.Request) {
	infos := s.eng.Sentinel().List()
	if infos == nil {
		infos = []sentinel.Info{}
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) watchByID(w http.ResponseWriter, r *http.Request) (*sentinel.Watch, bool) {
	id := r.PathValue("id")
	watch, ok := s.eng.Sentinel().Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, CodeNotFound,
			fmt.Errorf("no watch %q (it may have closed with its session)", id))
		return nil, false
	}
	return watch, true
}

func (s *Server) handleGetWatch(w http.ResponseWriter, r *http.Request) {
	watch, ok := s.watchByID(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, watch.Info())
}

func (s *Server) handleDeleteWatch(w http.ResponseWriter, r *http.Request) {
	watch, ok := s.watchByID(w, r)
	if !ok {
		return
	}
	s.eng.Sentinel().Detach(watch.ID())
	// The terminal event reaches SSE subscribers before Done closes.
	select {
	case <-watch.Done():
	case <-r.Context().Done():
	}
	writeJSON(w, http.StatusOK, watch.Info())
}

// handleWatchEvents is the per-watch SSE stream: kept events replay
// (from ?after= or the standard Last-Event-ID header),
// live events follow as they are emitted, and the stream ends after the
// terminal watch-closed event. Event frames carry the per-watch
// sequence number as the SSE id, so a reconnecting client resumes
// exactly where it dropped.
func (s *Server) handleWatchEvents(w http.ResponseWriter, r *http.Request) {
	watch, ok := s.watchByID(w, r)
	if !ok {
		return
	}
	after := uint64(0)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			after = n
		}
	}
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad after=%q: %w", v, err))
			return
		}
		after = n
	}
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if err := rc.Flush(); err != nil {
		return // connection cannot stream; nothing sensible to send
	}

	sig, cancel := watch.Notify()
	defer cancel()
	ping := time.NewTicker(ssePingInterval)
	defer ping.Stop()
	for {
		events, ended := watch.EventsSince(after)
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data); err != nil {
				return
			}
			after = ev.Seq
		}
		if len(events) > 0 {
			if err := rc.Flush(); err != nil {
				return
			}
		}
		if ended {
			// Everything buffered is out and no further events can
			// follow the terminal one: end the stream cleanly.
			if rest, _ := watch.EventsSince(after); len(rest) == 0 {
				return
			}
			continue
		}
		select {
		case <-sig:
		case <-ping.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// rprismWatchConfig maps a watch request onto the engine's default diff
// options, overriding only what the request sets — as /run does.
func rprismWatchConfig(req WatchRequest, defaults rprism.DiffOptions) (cfg rprism.WatchConfig) {
	cfg.Baseline = req.Baseline
	cfg.Webhook = req.Webhook
	cfg.ExpectedOld = req.ExpectedOld
	cfg.ExpectedNew = req.ExpectedNew
	cfg.DiffOpts = defaults
	if req.Parallelism != 0 {
		cfg.DiffOpts.Parallelism = req.Parallelism
	}
	return cfg
}
