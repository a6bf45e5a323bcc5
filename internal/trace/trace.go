// Package trace defines the execution-trace grammar of the paper
// "Semantics-Aware Trace Analysis" (PLDI 2009), Figures 4 and 8: trace
// entries, the seven event kinds, call-stack frames recorded at thread
// forks, and the extended object representation ⟨l, r⟩ used for
// differencing across program versions.
//
// Everything downstream — views, differencing, regression analysis —
// consumes only this grammar, so any producer that emits it (our mini-Java
// interpreter, a synthetic generator, a test) exercises the same analysis
// code paths the original AspectJ-woven JVM traces did.
package trace

import "fmt"

// EntryID is the index of an entry within its trace (eid in the paper).
type EntryID int

// ThreadID identifies an executing thread (tid in the paper).
type ThreadID int

// Loc is a heap location l. Value objects (primitives) have NoLoc.
type Loc int64

// NoLoc marks representations of primitive values, which have no heap
// location (E′#(D(d)) = ⟨·, D:[d]⟩ in Fig. 8).
const NoLoc Loc = 0

// EventKind enumerates the event grammar of Fig. 4.
type EventKind uint8

const (
	// KindEOF is the special entry appended to pad traces to equal length
	// before differencing (§3.1).
	KindEOF EventKind = iota
	// KindGet is a field read: get(ρ, f, ρ′).
	KindGet
	// KindSet is a field write: set(ρ, f, ρ′).
	KindSet
	// KindCall is a method invocation: call(ρ, m, ρ̄).
	KindCall
	// KindReturn is a method return: return(ρ, m, ρ′).
	KindReturn
	// KindInit is an object creation: init(A, ρ̄, ρ).
	KindInit
	// KindFork is a thread creation: fork(S̄), recording spawn ancestry.
	KindFork
	// KindEnd is a thread completion: end(S̄).
	KindEnd
)

var kindNames = [...]string{"eof", "get", "set", "call", "return", "init", "fork", "end"}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Repr is the extended object representation ⟨l, r⟩ of Fig. 8. Loc is the
// heap location (unstable across versions, so never compared), Class the
// dynamic type name, and Hash/Str a recursively computed value
// representation. Seq is the per-class object creation sequence number,
// derivable from trace data, used by object view correlation (§3.1).
//
// A Repr with Hash == 0 and Str == "" is an *empty* value representation:
// the paper forces this when an object has no meaningful version-stable
// value (default Object.hashCode/toString); correlation then falls back to
// creation sequence numbers.
type Repr struct {
	Loc   Loc
	Class string
	Hash  uint64
	Str   string
	Seq   int
	// ClassSym and StrSym are the interned forms of Class and Str,
	// assigned by Trace.Append (or EnsureSyms for hand-built entries).
	// Hot paths compare these single words; the strings remain populated
	// for rendering and as the canonical identity.
	ClassSym Sym `json:"-"`
	StrSym   Sym `json:"-"`
}

// IsZero reports whether r is the zero representation (no object at all,
// e.g. the missing value of a void return).
func (r Repr) IsZero() bool {
	return r.Loc == NoLoc && r.Class == "" && r.Hash == 0 && r.Str == "" && r.Seq == 0
}

// HasValue reports whether r carries a meaningful (non-empty) value
// representation usable for cross-version comparison.
func (r Repr) HasValue() bool { return r.Hash != 0 || r.Str != "" }

// ValueEqual compares the version-stable parts of two representations:
// class name and recursive value representation. Locations and sequence
// numbers are deliberately ignored (§3.1: "locations by themselves are
// unsuitable for comparison across different program versions"). When
// both sides carry interned symbols the comparison is three word
// compares; otherwise it falls back to the strings. Both sides are read
// in place.
func (r *Repr) ValueEqual(o *Repr) bool {
	if r.Hash != o.Hash {
		return false
	}
	return symEqual(r.ClassSym, o.ClassSym, r.Class, o.Class) &&
		symEqual(r.StrSym, o.StrSym, r.Str, o.Str)
}

// symEqual compares two symbol-bearing fields: by Sym when both are
// interned, by string otherwise. Correct in the mixed case because a
// non-interned side simply falls back to the canonical string identity.
func symEqual(sa, sb Sym, a, b string) bool {
	if sa != NoSym && sb != NoSym {
		return sa == sb
	}
	return a == b
}

func (r Repr) String() string {
	switch {
	case r.IsZero():
		return "·"
	case r.Loc == NoLoc:
		return fmt.Sprintf("%s(%s)", r.Class, r.Str)
	case r.HasValue():
		return fmt.Sprintf("%s#%d{%s}", r.Class, r.Seq, r.Str)
	default:
		return fmt.Sprintf("%s#%d", r.Class, r.Seq)
	}
}

// Frame is one stack entry s(m, ρ, ρ′): method m invoked on callee ρ′ from
// caller ρ. Fork and end events record the full spawn ancestry as a frame
// sequence so that thread correlation can score spawn-context similarity.
type Frame struct {
	Method string
	Caller Repr
	Callee Repr
	// MethodSym is the interned form of Method.
	MethodSym Sym `json:"-"`
}

func (f Frame) String() string {
	return fmt.Sprintf("s(%s,%s,%s)", f.Method, f.Caller, f.Callee)
}

// Event is one trace event e of Fig. 4. Field use by kind:
//
//	get:    Target=ρ object read, Member=field, Args[0]=value read
//	set:    Target=ρ object written, Member=field, Args[0]=value written
//	call:   Target=ρ′ callee, Member=method, Args=arguments
//	return: Target=ρ′ object returned from, Member=method, Args[0]=return value (absent for void)
//	init:   Target=ρ′ created object, Member=class name A, Args=constructor arguments
//	fork:   Member=child thread id (decimal), Stack=spawn ancestry
//	end:    Stack=stack at completion
//	eof:    all fields empty
type Event struct {
	Kind   EventKind
	Target Repr
	Member string
	Args   []Repr
	Stack  []Frame
	// MemberSym is the interned form of Member.
	MemberSym Sym `json:"-"`
}

// Entry is one trace entry: entry(eid, tid, m, ρ, e). Method and Self form
// the generic context — the method under execution and the object it
// executes on — while Event captures the specific action.
type Entry struct {
	EID    EntryID
	TID    ThreadID
	Method string
	Self   Repr
	Event  Event
	// MethodSym is the interned form of Method.
	MethodSym Sym `json:"-"`
}

// IsEOF reports whether the entry is trace padding. Loops over whole
// traces test Event.Kind instead: calling this through a *Entry copies
// the entry.
func (e Entry) IsEOF() bool { return e.Event.Kind == KindEOF }

func (e Entry) String() string {
	ev := e.Event
	ctx := fmt.Sprintf("[%d t%d %s %s]", e.EID, e.TID, e.Method, e.Self)
	switch ev.Kind {
	case KindEOF:
		return ctx + " eof"
	case KindGet:
		return fmt.Sprintf("%s get(%s.%s)=%s", ctx, ev.Target, ev.Member, arg0(ev.Args))
	case KindSet:
		return fmt.Sprintf("%s set(%s.%s)=%s", ctx, ev.Target, ev.Member, arg0(ev.Args))
	case KindCall:
		return fmt.Sprintf("%s call %s.%s%v", ctx, ev.Target, ev.Member, ev.Args)
	case KindReturn:
		return fmt.Sprintf("%s return %s.%s=%s", ctx, ev.Target, ev.Member, arg0(ev.Args))
	case KindInit:
		return fmt.Sprintf("%s init %s%v -> %s", ctx, ev.Member, ev.Args, ev.Target)
	case KindFork:
		return fmt.Sprintf("%s fork t%s depth=%d", ctx, ev.Member, len(ev.Stack))
	case KindEnd:
		return fmt.Sprintf("%s end depth=%d", ctx, len(ev.Stack))
	}
	return ctx + " ?"
}

func arg0(args []Repr) Repr {
	if len(args) == 0 {
		return Repr{}
	}
	return args[0]
}

// Trace is a named sequence of entries γ = η1.….ηn.
type Trace struct {
	Name    string
	Entries []Entry
}

// New returns an empty trace with the given name.
func New(name string) *Trace { return &Trace{Name: name} }

// Len returns |γ|.
func (t *Trace) Len() int { return len(t.Entries) }

// Append adds an entry, assigning its EID as the next index, and returns
// that EID. All symbol-bearing fields are interned here, once, so the
// entry enters the pipeline fully keyed by integer Syms.
func (t *Trace) Append(tid ThreadID, method string, self Repr, ev Event) EntryID {
	id := EntryID(len(t.Entries))
	e := Entry{EID: id, TID: tid, Method: method, Self: self, Event: ev}
	internEntry(&e, false)
	t.Entries = append(t.Entries, e)
	return id
}

// EnsureSyms backfills the Sym fields of every entry whose symbols are
// still zero — the path for traces built by hand or read by loaders that
// do not carry a symbol block. Entries already interned are left alone,
// so repeated calls after the first are a cheap scan.
func (t *Trace) EnsureSyms() {
	for i := range t.Entries {
		internEntry(&t.Entries[i], false)
	}
}

// RehashSyms re-interns every entry's symbols from their strings,
// overwriting any existing Sym values. Loaders use it when the stored Sym
// ids come from a different process (and are therefore meaningless here).
func (t *Trace) RehashSyms() {
	for i := range t.Entries {
		internEntry(&t.Entries[i], true)
	}
}

// internEntry interns the symbol-bearing fields of one entry in place.
// With force, existing Sym values are overwritten from the strings.
func internEntry(e *Entry, force bool) {
	internSym(&e.MethodSym, e.Method, force)
	internRepr(&e.Self, force)
	internSym(&e.Event.MemberSym, e.Event.Member, force)
	internRepr(&e.Event.Target, force)
	for i := range e.Event.Args {
		internRepr(&e.Event.Args[i], force)
	}
	for i := range e.Event.Stack {
		f := &e.Event.Stack[i]
		internSym(&f.MethodSym, f.Method, force)
		internRepr(&f.Caller, force)
		internRepr(&f.Callee, force)
	}
}

func internRepr(r *Repr, force bool) {
	internSym(&r.ClassSym, r.Class, force)
	internSym(&r.StrSym, r.Str, force)
}

func internSym(dst *Sym, s string, force bool) {
	if (*dst == NoSym || force) && s != "" {
		*dst = Intern(s)
	} else if force && s == "" {
		*dst = NoSym
	}
}

// At returns the entry with the given id, or false if out of range.
func (t *Trace) At(id EntryID) (Entry, bool) {
	if id < 0 || int(id) >= len(t.Entries) {
		return Entry{}, false
	}
	return t.Entries[id], true
}

// PadEOF appends one eof entry to each trace, plus as many further eof
// entries to the shorter trace as needed to equalize lengths (§3.1).
// It mutates both traces.
func PadEOF(l, r *Trace) {
	appendEOF := func(t *Trace, n int) {
		for i := 0; i < n; i++ {
			t.Entries = append(t.Entries, Entry{
				EID:   EntryID(len(t.Entries)),
				TID:   -1,
				Event: Event{Kind: KindEOF},
			})
		}
	}
	appendEOF(l, 1)
	appendEOF(r, 1)
	if d := l.Len() - r.Len(); d > 0 {
		appendEOF(r, d)
	} else if d < 0 {
		appendEOF(l, -d)
	}
}

// ThreadIDs returns the distinct thread ids appearing in the trace, in
// first-appearance order. EOF padding entries are skipped.
func (t *Trace) ThreadIDs() []ThreadID {
	seen := make(map[ThreadID]bool)
	var ids []ThreadID
	for i := range t.Entries {
		e := &t.Entries[i]
		if e.Event.Kind == KindEOF || seen[e.TID] {
			continue
		}
		seen[e.TID] = true
		ids = append(ids, e.TID)
	}
	return ids
}
