package corpus

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/trace"
	"repro/internal/views"
)

// Append-open sessions: the live-ingestion tier in front of the
// content-addressed store. A streaming producer (the capture recorder,
// via rprism-serve's POST /traces/stream) opens a session, appends
// decoded segments as the program runs, and closes it when the program
// finishes — at which point the accumulated trace is admitted through
// the normal Put path and earns its content digest. Until then the
// session is addressable by its session id: Snapshot and Web hand out
// consistent point-in-time projections, so analyses run against a
// still-running program exactly as they do against stored traces.

// ErrSessionClosed reports an operation on a finalized or aborted
// session.
var ErrSessionClosed = errors.New("corpus: session closed")

// ErrSessionNotFound reports a session id the store does not know.
var ErrSessionNotFound = errors.New("corpus: session not found")

// ErrTooManySessions reports that the open-session cap
// (Options.MaxSessions) is reached; close, abort, or delete sessions to
// open more.
var ErrTooManySessions = errors.New("corpus: too many open sessions")

// SessionInfo summarizes one open session.
type SessionInfo struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Entries int    `json:"entries"`
}

// SessionEvent is one subscription notification: the session grew, was
// finalized into the store, or was discarded. Events are coalesced — a
// subscriber that lags sees the latest state change, not every
// intermediate one — so Entries is the entry count at notification
// time, to be treated as a "re-snapshot now" trigger rather than a
// delta. Digest is set only on Closed.
type SessionEvent struct {
	Entries int
	Closed  bool
	Aborted bool
	Digest  trace.Digest
}

// Terminal reports whether the event ends the session (and therefore
// the subscription: the channel is closed right after a terminal
// event).
func (e SessionEvent) Terminal() bool { return e.Closed || e.Aborted }

// Session is one append-open live trace. All methods are safe for
// concurrent use; Append calls are serialized against each other and
// against snapshots, while the traces and webs handed out stay valid
// (and unchanged) however much the session grows afterwards — see
// views.IncrementalBuilder for the mechanism.
type Session struct {
	id    string
	name  string
	store *Store

	mu      sync.Mutex
	builder *views.IncrementalBuilder
	closed  bool
	subs    map[int]chan SessionEvent
	nextSub int
	finalEv *SessionEvent
}

// newSessionID returns a random live-session id. The "live-" prefix
// keeps session ids visibly distinct from 64-hex content digests.
func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("corpus: session id entropy: %v", err))
	}
	return "live-" + hex.EncodeToString(b[:])
}

// OpenSession creates an append-open session for a trace with the given
// name. The session is visible in Sessions and addressable by id until
// Close or Abort. It fails with ErrTooManySessions at the
// Options.MaxSessions cap — sessions live in memory, so abandoned
// recorders must not grow the store without bound.
func (s *Store) OpenSession(name string) (*Session, error) {
	sess := &Session{
		id:      newSessionID(),
		name:    name,
		store:   s,
		builder: views.NewIncrementalBuilder(name),
	}
	s.mu.Lock()
	if len(s.sessions) >= s.opts.MaxSessions {
		n := len(s.sessions)
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d open (close, abort, or DELETE stale ones)", ErrTooManySessions, n)
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	return sess, nil
}

// Session resolves an open session by id.
func (s *Store) Session(id string) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrSessionNotFound, id)
	}
	return sess, nil
}

// Sessions lists the open sessions, sorted by id.
func (s *Store) Sessions() []SessionInfo {
	s.mu.Lock()
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	out := make([]SessionInfo, len(sessions))
	for i, sess := range sessions {
		out[i] = sess.Info()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// dropSession removes a session from the open set.
func (s *Store) dropSession(id string) {
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
}

// sessionEntries sums the entry counts of open sessions (for Stats).
func (s *Store) sessionStats() (int, int) {
	s.mu.Lock()
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	entries := 0
	for _, sess := range sessions {
		entries += sess.Len()
	}
	return len(sessions), entries
}

// ID returns the session id.
func (s *Session) ID() string { return s.id }

// Name returns the trace name the session was opened with.
func (s *Session) Name() string { return s.name }

// Len returns the number of entries appended so far.
func (s *Session) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.builder.Len()
}

// Info summarizes the session.
func (s *Session) Info() SessionInfo {
	return SessionInfo{ID: s.id, Name: s.name, Entries: s.Len()}
}

// Subscribe registers for the session's lifecycle events: one
// (coalesced) notification per append, and a final Closed or Aborted
// event after which the channel is closed. The returned cancel function
// detaches the subscription; it is idempotent and safe to call after
// the channel closed. Subscribing to an already-finalized session
// yields the terminal event immediately.
//
// Delivery never blocks the appender: the channel holds one pending
// event, and a newer event replaces an unconsumed older one. This makes
// subscribers level-triggered — on receipt, snapshot the session and
// act on its current state.
func (s *Session) Subscribe() (<-chan SessionEvent, func()) {
	ch := make(chan SessionEvent, 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalEv != nil {
		ch <- *s.finalEv
		close(ch)
		return ch, func() {}
	}
	if s.subs == nil {
		s.subs = make(map[int]chan SessionEvent)
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if c, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(c)
		}
	}
	return ch, cancel
}

// notifyLocked delivers ev to every subscriber without blocking; the
// caller holds s.mu. A full channel is drained of its stale event first
// (coalescing), so the send after the drain cannot fail: all sends and
// closes happen under s.mu, leaving the receiver as the only other
// party touching the channel. A terminal event is recorded for late
// subscribers and closes every channel.
func (s *Session) notifyLocked(ev SessionEvent) {
	for _, ch := range s.subs {
		select {
		case ch <- ev:
			continue
		default:
		}
		select {
		case <-ch:
		default:
		}
		select {
		case ch <- ev:
		default:
		}
	}
	if ev.Terminal() {
		s.finalEv = &ev
		for _, ch := range s.subs {
			close(ch)
		}
		s.subs = nil
	}
}

// Append extends the session with one segment of entries and returns the
// new entry count. Entry ids must continue the session's dense
// numbering; entries below the current high-water mark are skipped, so
// re-delivering a batch after a dropped connection is idempotent.
func (s *Session) Append(entries []trace.Entry) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.builder.Len(), fmt.Errorf("%w: %s", ErrSessionClosed, s.id)
	}
	if err := s.builder.Append(entries); err != nil {
		return s.builder.Len(), err
	}
	s.notifyLocked(SessionEvent{Entries: s.builder.Len()})
	return s.builder.Len(), nil
}

// Snapshot returns the trace accumulated so far. The returned trace is
// immutable: later appends never rewrite its entries.
func (s *Session) Snapshot() *trace.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.builder.SnapshotTrace()
}

// Web returns a query-ready view web over everything appended so far —
// the live session's always-current web. The web is immutable and safe
// to hand to any number of concurrent diffs while the session keeps
// streaming.
func (s *Session) Web() *views.Web {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.builder.Snapshot()
}

// Close finalizes the session: the accumulated trace is admitted to the
// store through the normal Put path (canonical digest, one trace file,
// metadata sidecar, dedup against identical content) and the session
// leaves the open set. It returns the content digest the trace is now
// addressable by and whether new content was stored.
//
// Failure handling is asymmetric on purpose. Closing an empty session
// is a request error (empty traces are not admissible) and removes the
// session — there is nothing to lose. A failed Put (disk full, I/O
// error) REOPENS the session instead: the accumulated trace still lives
// in memory and a retried Close may succeed, where dropping it would
// turn a transient storage error into a lost capture.
func (s *Session) Close() (trace.Digest, bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return trace.Digest{}, false, fmt.Errorf("%w: %s", ErrSessionClosed, s.id)
	}
	// Mark closed before Put so concurrent Appends cannot slip entries
	// in behind the finalization snapshot.
	s.closed = true
	final := s.builder.SnapshotTrace()
	s.mu.Unlock()

	if final.Len() == 0 {
		s.mu.Lock()
		s.notifyLocked(SessionEvent{Aborted: true})
		s.mu.Unlock()
		s.store.dropSession(s.id)
		return trace.Digest{}, false, fmt.Errorf("%w: closing empty session %s", ErrInvalidTrace, s.id)
	}
	id, created, err := s.store.Put(final)
	if err != nil {
		s.mu.Lock()
		s.closed = false
		s.mu.Unlock()
		return trace.Digest{}, false, err
	}
	s.mu.Lock()
	s.notifyLocked(SessionEvent{Entries: final.Len(), Closed: true, Digest: id})
	s.mu.Unlock()
	s.store.dropSession(s.id)
	return id, created, nil
}

// Abort discards the session without storing anything.
func (s *Session) Abort() {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	if !wasClosed {
		s.notifyLocked(SessionEvent{Entries: s.builder.Len(), Aborted: true})
	}
	s.mu.Unlock()
	if !wasClosed {
		s.store.dropSession(s.id)
	}
}
