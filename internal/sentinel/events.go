package sentinel

import (
	"sort"
	"time"

	"repro/internal/regression"
	"repro/internal/trace"
)

// EventKind discriminates watch events.
type EventKind string

const (
	// EventDivergence is the alarm: the first evaluation whose
	// candidate set D was non-empty.
	EventDivergence EventKind = "divergence"
	// EventWatchClosed is the terminal event of every watch: session
	// closed, session aborted, watch detached, or evaluation failure.
	// Reason carries which.
	EventWatchClosed EventKind = "watch_closed"
)

// maxSummary caps the per-event candidate summary.
const maxSummary = 8

// Event is one structured watch notification. Seq is per-watch,
// monotonically increasing from 1; SSE clients resume with it. The
// Watermark is the highest live EID covered by the evaluation that
// produced the event.
type Event struct {
	Seq        uint64        `json:"seq"`
	Kind       EventKind     `json:"kind"`
	WatchID    string        `json:"watch_id"`
	SessionID  string        `json:"session_id"`
	Baseline   string        `json:"baseline,omitempty"`
	Time       time.Time     `json:"time"`
	Entries    int           `json:"entries"`
	Watermark  trace.EntryID `json:"eid_watermark"`
	Candidates int           `json:"candidates,omitempty"`
	Summary    []Candidate   `json:"summary,omitempty"`
	Reason     string        `json:"reason,omitempty"`
}

// Candidate is one summarized member of the candidate set D.
type Candidate struct {
	EID    trace.EntryID `json:"eid"`
	Kind   string        `json:"kind"`
	Method string        `json:"method,omitempty"`
	Member string        `json:"member,omitempty"`
	Class  string        `json:"class,omitempty"`
}

// summarize renders the first max candidates through the regression
// signature (kind, member, class, enclosing method) — the same
// canonicalization the post-mortem analysis reports.
func summarize(t *trace.Trace, eids []trace.EntryID, max int) []Candidate {
	if len(eids) > max {
		eids = eids[:max]
	}
	out := make([]Candidate, 0, len(eids))
	for _, eid := range eids {
		sig := regression.EntrySignature(t.Entries[eid])
		out = append(out, Candidate{
			EID:    eid,
			Kind:   sig.Kind.String(),
			Method: trace.SymStr(sig.Method),
			Member: trace.SymStr(sig.Member),
			Class:  trace.SymStr(sig.Class),
		})
	}
	return out
}

// append stamps and keeps an event, wakes subscribers, and returns the
// stamped event. Every event is kept for SSE replay: a watch emits at
// most one divergence and one terminal event.
func (w *Watch) append(ev Event) Event {
	w.mu.Lock()
	w.nextSeq++
	ev.Seq = w.nextSeq
	ev.Time = time.Now().UTC()
	ev.WatchID = w.id
	ev.SessionID = w.spec.Session.ID()
	if !w.spec.BaselineDigest.IsZero() {
		ev.Baseline = w.spec.BaselineDigest.String()
	}
	w.events = append(w.events, ev)
	for _, ch := range w.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	w.mu.Unlock()
	w.m.counters.EventsEmitted.Add(1)
	return ev
}

// emitClosed emits the terminal watch-closed event exactly once.
func (w *Watch) emitClosed(reason string) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.reason = reason
	entries := w.entries
	w.mu.Unlock()
	w.append(Event{Kind: EventWatchClosed, Reason: reason, Entries: entries,
		Watermark: trace.EntryID(entries - 1)})
}

// EventsSince returns the buffered events with Seq > after, in order,
// and whether the watch has ended (no further events will follow the
// returned ones once ended is true and the slice drains).
func (w *Watch) EventsSince(after uint64) (events []Event, ended bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, ev := range w.events {
		if ev.Seq > after {
			events = append(events, ev)
		}
	}
	return events, w.closed
}

// Notify registers a wake-up signal: the channel receives (capacity 1,
// coalesced) whenever a new event is appended. Cancel is idempotent.
// Use with EventsSince in a level-triggered loop.
func (w *Watch) Notify() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	w.mu.Lock()
	if w.subs == nil {
		w.subs = make(map[int]chan struct{})
	}
	id := w.nextSub
	w.nextSub++
	w.subs[id] = ch
	w.mu.Unlock()
	return ch, func() {
		w.mu.Lock()
		delete(w.subs, id)
		w.mu.Unlock()
	}
}

func sortInfos(infos []Info) {
	sort.Slice(infos, func(i, j int) bool {
		a, b := infos[i].ID, infos[j].ID
		if len(a) != len(b) { // w2 < w10: ids are "w<seq>"
			return len(a) < len(b)
		}
		return a < b
	})
}
