package trace

// EventEqual implements the event equality predicate =e of Fig. 9: two
// entries are equal when the underlying primitive values of their events —
// including the value representations generated by E′# — are equal. The
// enclosing context (thread id, entry id, heap locations, sequence numbers)
// is deliberately excluded: those are not stable across program versions.
// Both entries are read in place: the differs call this once per
// counted compare.
func EventEqual(a, b *Entry) bool {
	ea, eb := &a.Event, &b.Event
	if ea.Kind != eb.Kind {
		return false
	}
	switch ea.Kind {
	case KindEOF:
		return true
	case KindFork, KindEnd:
		// Thread events compare by the shape of their spawn/end stacks:
		// same depth and same method names along the ancestry. Child thread
		// ids (Member) are unstable across versions and ignored.
		return stacksShapeEqual(ea.Stack, eb.Stack)
	}
	if !symEqual(ea.MemberSym, eb.MemberSym, ea.Member, eb.Member) {
		return false
	}
	if !ea.Target.ValueEqual(&eb.Target) {
		return false
	}
	if len(ea.Args) != len(eb.Args) {
		return false
	}
	for i := range ea.Args {
		if !ea.Args[i].ValueEqual(&eb.Args[i]) {
			return false
		}
	}
	return true
}

func stacksShapeEqual(a, b []Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !symEqual(a[i].MethodSym, b[i].MethodSym, a[i].Method, b[i].Method) ||
			!symEqual(a[i].Callee.ClassSym, b[i].Callee.ClassSym, a[i].Callee.Class, b[i].Callee.Class) {
			return false
		}
	}
	return true
}

// StackSimilarity scores how alike two spawn stacks are, in [0, 1]. It is
// the fraction of aligned frames (from the spawn point outward) that agree
// on method name and callee class, discounted by depth mismatch. Thread
// view correlation picks the closest match by this score (§3.1: "closest
// match based on the spawning call stack of the thread and the thread's
// ancestors").
func StackSimilarity(a, b []Frame) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	max := len(a)
	if len(b) > max {
		max = len(b)
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	match := 0
	for i := 1; i <= n; i++ {
		fa, fb := &a[len(a)-i], &b[len(b)-i]
		if symEqual(fa.MethodSym, fb.MethodSym, fa.Method, fb.Method) &&
			symEqual(fa.Callee.ClassSym, fb.Callee.ClassSym, fa.Callee.Class, fb.Callee.Class) {
			match++
		}
	}
	return float64(match) / float64(max)
}

// EventClassHash is the =e class key of an entry. It hashes the fields
// EventEqual compares, and only those, so EventEqual(a, b) implies equal
// hashes: the kind alone for EOF, the stack shape for fork and end, and
// otherwise member, target and argument value representations (never Loc
// or Seq). It reads the canonical strings, length-prefixed, never Syms,
// so it is the same in every process: persisted sketches count it.
func EventClassHash(e *Entry) uint64 {
	ev := &e.Event
	h := Mix64(HashOffset, uint64(ev.Kind))
	switch ev.Kind {
	case KindEOF:
	case KindFork, KindEnd:
		h = Mix64(h, uint64(len(ev.Stack)))
		for i := range ev.Stack {
			h = MixString(h, ev.Stack[i].Method)
			h = MixString(h, ev.Stack[i].Callee.Class)
		}
	default:
		h = MixString(h, ev.Member)
		h = mixRepr(h, &ev.Target)
		h = Mix64(h, uint64(len(ev.Args)))
		for i := range ev.Args {
			h = mixRepr(h, &ev.Args[i])
		}
	}
	return h
}

// HashOffset and HashPrime are the 64-bit FNV-1a parameters.
const (
	HashOffset = 14695981039346656037
	HashPrime  = 1099511628211
)

// MixString folds a length-prefixed string into the running hash h.
func MixString(h uint64, s string) uint64 {
	h = Mix64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= HashPrime
	}
	return h
}

func mixRepr(h uint64, r *Repr) uint64 {
	h = Mix64(h, r.Hash)
	h = MixString(h, r.Class)
	return MixString(h, r.Str)
}

// Mix64 folds a word into the running hash: xor, then the bijective
// SplitMix64 finalizer (Mix64(0, x) is the finalizer alone).
func Mix64(h, v uint64) uint64 {
	x := h ^ v
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
