package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	rprism "repro"
	"repro/internal/capture"
	"repro/internal/corpus"
	"repro/internal/trace"
)

// Streaming ingestion: POST /traces/stream accepts the capture wire
// protocol (NDJSON frames, see internal/capture) and builds append-open
// corpus sessions from them. A session's web is extended incrementally
// as frames arrive, so /diff and /run/{analysis} can reference the
// still-streaming session via "session:<id>" source values while the
// traced program keeps running; the close frame finalizes the session
// into an ordinary content-addressed trace.
//
// Stream requests do not occupy analysis worker slots: appends are
// incremental-build work bounded by the frame size, and a long-lived
// chunked stream parked on a slot would starve the pool that diffs and
// regressions queue on.

// streamState pairs a corpus session with its wire decoder. The decoder
// accumulates the stream's cumulative symbol table, so it must be driven
// by exactly one request at a time: mu serializes whole requests, which
// also keeps a resumed stream's frames in order. bytes sums the segment
// frames applied across every request of the session, which together
// may not pass MaxUploadBytes, the bound of one upload.
type streamState struct {
	mu    sync.Mutex
	sess  *corpus.Session
	dec   trace.WireDecoder
	bytes int64
}

// stream returns the wire state for a session id, or nil.
func (s *Server) stream(id string) *streamState {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	return s.streams[id]
}

func (s *Server) dropStream(id string) {
	s.streamMu.Lock()
	delete(s.streams, id)
	s.streamMu.Unlock()
}

// finishedTombstones bounds the finalized-session memory: enough to
// absorb any realistic retry window, small enough to never matter.
const finishedTombstones = 256

// finishStream replaces a session's wire state with a tombstone holding
// its finalization ack, so a client that lost the close response can
// retry and receive the same answer instead of a 404 (the close frame
// is then idempotent like every other frame). The tombstone goes in
// first, so a concurrent lookup finds one or the other.
func (s *Server) finishStream(id string, info capture.StreamTraceInfo) {
	s.finished.Add(id, info)
	s.dropStream(id)
}

// handleStream processes one request of the capture stream protocol:
// an open frame (create or resume a session), any number of segment
// frames appended as they decode — a concurrent diff against the
// session sees entries from frames already processed, even while this
// request is still being read — and an optional close frame that
// finalizes the session into the corpus.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	dec := json.NewDecoder(body)

	var first capture.StreamFrame
	if err := dec.Decode(&first); err != nil {
		writeBodyErr(w, "stream must start with an open frame", err)
		return
	}
	if first.Frame != capture.FrameOpen {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("stream must start with an open frame, got %q", first.Frame))
		return
	}

	var st *streamState
	if first.Session == "" {
		name := first.Name
		if name == "" {
			name = "capture"
		}
		sess, err := s.store.OpenSession(name)
		if err != nil {
			// The open-session cap is pressure, not a client mistake:
			// 503 tells well-behaved recorders to back off and retry.
			writeErr(w, http.StatusServiceUnavailable, CodeTooManySessions, err)
			return
		}
		st = &streamState{sess: sess}
		s.streamMu.Lock()
		s.streams[st.sess.ID()] = st
		s.streamMu.Unlock()
	} else if st = s.stream(first.Session); st == nil {
		// A recently finalized session answers with its stored ack: the
		// request is a replay whose close response was lost, and all its
		// data is already in the trace the tombstone names.
		if info, ok := s.finished.Get(first.Session); ok {
			writeJSON(w, http.StatusOK, capture.StreamAck{
				Session: first.Session, Entries: info.Entries, Trace: &info,
			})
			return
		}
		writeErr(w, http.StatusNotFound, CodeNotFound,
			fmt.Errorf("no open stream session %q (sessions do not survive server restarts; open a new one)", first.Session))
		return
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	ack := capture.StreamAck{Session: st.sess.ID()}
	for {
		var fr capture.StreamFrame
		start := dec.InputOffset()
		if err := dec.Decode(&fr); err == io.EOF {
			break
		} else if err != nil {
			// The session survives a malformed, torn or oversized
			// request: the client resumes by re-sending from its last
			// acked entry.
			writeBodyErr(w, fmt.Sprintf("stream session %s: bad frame", st.sess.ID()), err)
			return
		}
		switch fr.Frame {
		case capture.FrameOpen:
			if fr.Session != "" && fr.Session != st.sess.ID() {
				writeErr(w, http.StatusBadRequest, CodeBadRequest,
					fmt.Errorf("stream is bound to session %s, got open for %q", st.sess.ID(), fr.Session))
				return
			}
		case capture.FrameSegment:
			// Replay detection must happen BEFORE decoding: a client that
			// never saw the ack of a fully-processed request resends the
			// identical frame, and running it through the decoder again
			// would re-add its symbol delta to the cumulative table,
			// skewing every later ref. Frames are processed atomically
			// under st.mu (symbols + entries together), so a frame whose
			// entries all sit below the session's high-water mark was
			// applied in full — skip it outright.
			if n := len(fr.Entries); n > 0 && int(fr.Entries[n-1].EID) < st.sess.Len() {
				continue
			}
			// The session stays open past a refused frame, so a close
			// frame can still finalize what it holds.
			size := dec.InputOffset() - start
			if st.bytes+size > s.opts.MaxUploadBytes {
				writeErr(w, http.StatusRequestEntityTooLarge, CodeTooLarge, fmt.Errorf(
					"stream session %s: frame would pass the %d-byte session limit", st.sess.ID(), s.opts.MaxUploadBytes))
				return
			}
			entries, err := st.dec.Segment(trace.WireSegment{Symbols: fr.Symbols, Entries: fr.Entries})
			if err != nil {
				writeErr(w, http.StatusBadRequest, CodeBadRequest,
					fmt.Errorf("stream session %s: %w", st.sess.ID(), err))
				return
			}
			if _, err := st.sess.Append(entries); err != nil {
				status, code := http.StatusBadRequest, CodeBadRequest
				if errors.Is(err, corpus.ErrSessionClosed) {
					status, code = http.StatusConflict, CodeSessionClosed
				}
				writeErr(w, status, code, err)
				return
			}
			st.bytes += size
		case capture.FrameClose:
			id, created, err := st.sess.Close()
			if err != nil {
				if errors.Is(err, corpus.ErrInvalidTrace) {
					// Empty session: Close removed it; drop the wire state too.
					s.dropStream(st.sess.ID())
					writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
					return
				}
				// Finalization failed (e.g. disk full): Close reopened the
				// session, so keep the wire state — the client's retried
				// close frame can still succeed.
				writeErr(w, http.StatusInternalServerError, CodeInternal, err)
				return
			}
			m, err := s.store.Meta(id)
			if err != nil {
				writeErr(w, http.StatusInternalServerError, CodeInternal, err)
				return
			}
			info := capture.StreamTraceInfo{
				ID: m.ID, Name: m.Name, Entries: m.Entries, Created: created,
			}
			s.finishStream(st.sess.ID(), info)
			ack.Trace = &info
		default:
			writeErr(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("unknown stream frame %q", fr.Frame))
			return
		}
	}
	ack.Entries = st.sess.Len()
	if ack.Trace != nil {
		ack.Entries = ack.Trace.Entries
	}
	writeJSON(w, http.StatusOK, ack)
}

// handleSessions lists the open capture sessions.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.Sessions())
}

// handleGetSession reports one open session — clients also use the
// entry count as their resume point after a dropped stream.
func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess, err := s.store.Session(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, CodeNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

// handleAbortSession discards an open session without storing anything.
func (s *Server) handleAbortSession(w http.ResponseWriter, r *http.Request) {
	sess, err := s.store.Session(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, CodeNotFound, err)
		return
	}
	sess.Abort()
	s.dropStream(sess.ID())
	writeJSON(w, http.StatusOK, map[string]string{"status": "aborted", "session": sess.ID()})
}

// sessionRefPrefix marks a source value as a live session reference in
// /diff and /run requests: "session:<id>" instead of a content digest.
const sessionRefPrefix = "session:"

// sourceRef resolves a trace reference from a request — a 64-hex content
// digest, a git-style short digest prefix (≥ 4 hex chars, resolved when
// unique), or "session:<id>" naming a live capture session — to an
// engine source. The returned label is the reference itself, used in
// wire responses where stored traces show their digest.
func (s *Server) sourceRef(val string) (rprism.Source, error) {
	if id, ok := strings.CutPrefix(val, sessionRefPrefix); ok {
		sess, err := s.store.Session(id)
		if err != nil {
			return nil, err
		}
		return rprism.FromSession(sess), nil
	}
	d, err := trace.ParseDigest(val)
	if err != nil {
		// Not a full digest — try it as a short prefix against the store.
		if rid, rerr := s.store.ResolvePrefix(val); rerr == nil {
			return rprism.FromCorpus(rid), nil
		} else if errors.Is(rerr, corpus.ErrNotFound) {
			return nil, rerr
		}
		return nil, fmt.Errorf("%q is neither a trace digest nor a session:<id> reference: %w", val, err)
	}
	return rprism.FromCorpus(d), nil
}
