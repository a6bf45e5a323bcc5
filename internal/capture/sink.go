package capture

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/retry"
	"repro/internal/trace"
)

// sink receives sequenced entries in EID order. append and flush run
// under the recorder's sequencer lock; close runs once, last.
type sink interface {
	append(e trace.Entry) error
	flush() error
	close(sum *Summary) error
}

// ---- disk sink ----

// diskSink writes entries through the §5 segment writer: bounded
// segments offloaded to a directory, reassembled later by
// trace.LoadSegments (which tolerates a truncated tail, so a crashed
// capture still yields its flushed prefix).
type diskSink struct {
	w *trace.SegmentWriter
}

func (d *diskSink) append(e trace.Entry) error {
	id, err := d.w.Append(e.TID, e.Method, e.Self, e.Event)
	if err != nil {
		return err
	}
	if id != e.EID {
		return fmt.Errorf("segment writer assigned id %d to entry %d", id, e.EID)
	}
	return nil
}

// flush is a no-op for disk: the segment writer offloads on its own
// limit, and half-full segments stay open until close.
func (d *diskSink) flush() error { return nil }

func (d *diskSink) close(*Summary) error { return d.w.Close() }

// ---- streaming protocol ----

// The wire protocol of POST /traces/stream, shared by this client and
// internal/server. The request body is NDJSON: one StreamFrame per line.
// Every request names its session in an "open" frame (an unknown or
// empty id opens a new session; a known id resumes it), carries any
// number of "segment" frames, and may end with a "close" frame that
// finalizes the session into a content-addressed trace. The response is
// one StreamAck. Entries keep their global EIDs, so re-sending a batch
// after a dropped connection is idempotent — the session skips what it
// already holds.

// Frame kinds of the stream protocol.
const (
	FrameOpen    = "open"
	FrameSegment = "segment"
	FrameClose   = "close"
)

// StreamFrame is one NDJSON line of a capture stream.
type StreamFrame struct {
	Frame string `json:"frame"`
	// Session identifies the session ("" in an open frame: create one).
	Session string `json:"session,omitempty"`
	// Name names the trace (open frames of new sessions).
	Name string `json:"name,omitempty"`
	// Symbols and Entries are the segment payload (segment frames): the
	// symbol delta plus symbol-referencing entries of trace.WireSegment.
	Symbols []string          `json:"symbols,omitempty"`
	Entries []trace.WireEntry `json:"entries,omitempty"`
}

// StreamTraceInfo describes the finalized trace in a close ack.
type StreamTraceInfo struct {
	ID      string `json:"id"` // content digest, hex
	Name    string `json:"name"`
	Entries int    `json:"entries"`
	Created bool   `json:"created"` // false: deduplicated to existing content
}

// StreamAck is the response to one stream request.
type StreamAck struct {
	Session string `json:"session"`
	// Entries is the session's entry count after this request — the
	// client's resume point.
	Entries int `json:"entries"`
	// Trace is set when the request's close frame finalized the session.
	Trace *StreamTraceInfo `json:"trace,omitempty"`
}

// ---- stream sink ----

// streamSink batches sequenced entries into segment frames and POSTs
// them to rprism-serve. Each request is self-contained (open + segments
// [+ close]), so a failed request can simply be retried: the server
// dedups by entry id.
type streamSink struct {
	url     string
	name    string
	client  *http.Client
	batch   int
	policy  retry.Policy
	session string
	enc     trace.WireEncoder
	buf     []trace.Entry
}

func newStreamSink(opts Options) *streamSink {
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &streamSink{
		url:    opts.ServerURL,
		name:   opts.Name,
		client: client,
		batch:  opts.SegmentLimit,
		policy: retry.Policy{Attempts: opts.RetryAttempts, Base: opts.RetryBackoff},
	}
}

func (s *streamSink) append(e trace.Entry) error {
	s.buf = append(s.buf, e)
	if len(s.buf) >= s.batch {
		return s.flush()
	}
	return nil
}

func (s *streamSink) flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	_, err := s.post(false)
	return err
}

func (s *streamSink) close(sum *Summary) error {
	ack, err := s.post(true)
	if err != nil {
		return err
	}
	sum.Session = s.session
	if ack.Trace != nil {
		sum.TraceID = ack.Trace.ID
		sum.Created = ack.Trace.Created
	}
	return nil
}

// post sends one stream request: open + buffered segment (+ close). On
// success the buffer is released; on transport errors it is retained and
// retried (entry-id and symbol-replay dedup on the server make the
// retry idempotent).
//
// The first post performs a data-free open handshake before shipping
// anything: every data-bearing request must name a session the client
// already knows, or a processed-but-unacked first request would strand
// its data in a session the retry can never find (the retry's anonymous
// open would mint a second session). A lost handshake ack can still
// leak an *empty* session server-side — visible in GET /sessions,
// abortable, and gone on server restart — which is the harmless end of
// that trade.
func (s *streamSink) post(closeSession bool) (*StreamAck, error) {
	if s.session == "" {
		ack, err := s.postFrames([]StreamFrame{{Frame: FrameOpen, Name: s.name}})
		if err != nil {
			return nil, err
		}
		s.session = ack.Session
	}
	return s.postData(closeSession)
}

func (s *streamSink) postData(closeSession bool) (*StreamAck, error) {
	// Encode the segment once; retries resend the identical frame. The
	// symbol delta stays correct across retries because the encoder's
	// table is only advanced here, whether or not the request lands.
	var seg trace.WireSegment
	if len(s.buf) > 0 {
		seg = s.enc.Segment(s.buf)
	}
	frames := []StreamFrame{{Frame: FrameOpen, Session: s.session, Name: s.name}}
	if len(seg.Entries) > 0 {
		frames = append(frames, StreamFrame{Frame: FrameSegment, Symbols: seg.Symbols, Entries: seg.Entries})
	}
	if closeSession {
		frames = append(frames, StreamFrame{Frame: FrameClose})
	}
	ack, err := s.postFrames(frames)
	if err != nil {
		return nil, err
	}
	s.buf = s.buf[:0]
	return ack, nil
}

// postFrames encodes and sends one request body, retrying transient
// failures (transport errors like a reset connection, 5xx responses)
// with the identical bytes under the shared jittered-backoff policy
// (internal/retry), and failing fast on definitive 4xx rejections.
func (s *streamSink) postFrames(frames []StreamFrame) (*StreamAck, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, f := range frames {
		if err := enc.Encode(f); err != nil {
			return nil, err
		}
	}
	var ack *StreamAck
	if err := s.policy.Do(context.Background(), func() error {
		a, err := s.send(body.Bytes())
		if err != nil {
			return err
		}
		ack = a
		return nil
	}); err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	return ack, nil
}

func (s *streamSink) send(body []byte) (*StreamAck, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/traces/stream", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		err := fmt.Errorf("server: HTTP %d", resp.StatusCode)
		if json.Unmarshal(raw, &env) == nil && env.Error.Message != "" {
			err = fmt.Errorf("server: %s (%s)", env.Error.Message, env.Error.Code)
		}
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			// Definitive rejection: retrying the identical bytes is wasted.
			return nil, retry.Permanent(err)
		}
		return nil, err
	}
	var ack StreamAck
	if err := json.Unmarshal(raw, &ack); err != nil {
		return nil, fmt.Errorf("bad stream ack: %w", err)
	}
	return &ack, nil
}

// StreamTrace streams an existing in-memory trace into a server session
// in batch-sized segment frames and finalizes it — the engine behind
// `rprism attach`. It returns the close ack (session id + finalized
// trace info).
func StreamTrace(ctx context.Context, url string, t *trace.Trace, batch int, client *http.Client) (*StreamAck, error) {
	if batch <= 0 {
		batch = 4096
	}
	s := newStreamSink(Options{ServerURL: url, Name: t.Name, SegmentLimit: batch, Client: client})
	for lo := 0; lo < t.Len(); lo += batch {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := lo + batch
		if hi > t.Len() {
			hi = t.Len()
		}
		s.buf = append(s.buf, t.Entries[lo:hi]...)
		if _, err := s.post(false); err != nil {
			return nil, fmt.Errorf("capture: stream %q: %w", t.Name, err)
		}
	}
	ack, err := s.post(true)
	if err != nil {
		return nil, fmt.Errorf("capture: finalize %q: %w", t.Name, err)
	}
	return ack, nil
}
