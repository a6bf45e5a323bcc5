// Package regression implements the regression-cause analysis algorithm
// of §4.1. Given four traces — the original (non-regressing) and new
// (regressing) program versions, each run on a regressing test case and a
// similar non-regressing test case — it computes:
//
//	A  suspected differences: orig vs new on the regressing test
//	B  expected differences:  orig vs new on the non-regressing test
//	C  regression differences: new version, non-regressing vs regressing test
//	D  = (A − B) ∩ C              (additive mode)
//	D  = (A − B) − C              (removal mode, for regressions caused by
//	                               code removed in the new version)
//
// B-subtraction works across executions via difference signatures;
// C-intersection is exact at the entry level because A and C share the
// same right-hand execution (new version, regressing input).
package regression

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/diff"
	"repro/internal/trace"
	"repro/internal/views"
)

// Input bundles the four traces of the analysis protocol. NewRegr must be
// the same execution in A and C: pass one trace, it is reused.
type Input struct {
	OrigCorrect *trace.Trace // original version, non-regressing test
	NewCorrect  *trace.Trace // new version, non-regressing test
	OrigRegr    *trace.Trace // original version, regressing test
	NewRegr     *trace.Trace // new version, regressing test
	// RemovalMode switches to D = (A − B) − C for regressions caused by
	// removal of code in the new version (§4.1).
	RemovalMode bool
	// Opts configures the views-based differencing used for all pairs.
	Opts diff.ViewOptions
}

// Side tags which trace a difference entry belongs to.
type Side uint8

const (
	// Orig is the original (left) version.
	Orig Side = iota
	// New is the new (right) version.
	New
)

// Ref locates one difference entry in the suspected set.
type Ref struct {
	Side Side
	EID  trace.EntryID
}

// SetSizes reports |A|, |B|, |C|, |D| in difference sequences — the units
// of Table 2.
type SetSizes struct {
	A, B, C, D int
}

// Analysis is the complete result.
type Analysis struct {
	A, B, C *diff.Result
	// D is the final candidate set: difference entries highly likely to be
	// responsible for the regression.
	D []Ref
	// Related indexes the difference sequences of A containing at least
	// one D entry — the "Regression Diff. Seqs" of Table 1.
	Related []int
	Sizes   SetSizes
}

// Analyze runs the three differencing passes and the set algebra. Each
// trace's view web is built exactly once here even though two of the
// traces participate in two differencing passes.
func Analyze(in Input) (*Analysis, error) {
	return AnalyzeCtx(context.Background(), in)
}

// AnalyzeCtx is Analyze with cancellation: the four web builds and three
// differencing passes all poll ctx and abort with its error.
func AnalyzeCtx(ctx context.Context, in Input) (*Analysis, error) {
	var w Webs
	var err error
	if w.OrigCorrect, err = views.BuildCtx(ctx, in.OrigCorrect); err != nil {
		return nil, err
	}
	if w.NewCorrect, err = views.BuildCtx(ctx, in.NewCorrect); err != nil {
		return nil, err
	}
	if w.OrigRegr, err = views.BuildCtx(ctx, in.OrigRegr); err != nil {
		return nil, err
	}
	if w.NewRegr, err = views.BuildCtx(ctx, in.NewRegr); err != nil {
		return nil, err
	}
	return AnalyzeWebsCtx(ctx, w, in.RemovalMode, in.Opts)
}

// Webs bundles pre-built view webs for the four traces of the protocol,
// in the same roles as Input. NewCorrect and NewRegr each feed two
// differencing passes, so handing in cached webs (the corpus view cache)
// saves up to four web constructions per analysis.
type Webs struct {
	OrigCorrect *views.Web
	NewCorrect  *views.Web
	OrigRegr    *views.Web
	NewRegr     *views.Web
}

// AnalyzeWebs runs the analysis over pre-built webs. The webs are only
// read; concurrent analyses may share them.
func AnalyzeWebs(w Webs, removalMode bool, opts diff.ViewOptions) (*Analysis, error) {
	return AnalyzeWebsCtx(context.Background(), w, removalMode, opts)
}

// AnalyzeWebsCtx is AnalyzeWebs with cancellation: each of the three
// differencing passes polls ctx (see diff.ViewDiffWebsCtx), so a protocol
// run over four large traces aborts promptly wherever it is.
func AnalyzeWebsCtx(ctx context.Context, w Webs, removalMode bool, opts diff.ViewOptions) (*Analysis, error) {
	a, err := diff.ViewDiffWebsCtx(ctx, w.OrigRegr, w.NewRegr, opts)
	if err != nil {
		return nil, err
	}
	b, err := diff.ViewDiffWebsCtx(ctx, w.OrigCorrect, w.NewCorrect, opts)
	if err != nil {
		return nil, err
	}
	c, err := diff.ViewDiffWebsCtx(ctx, w.NewCorrect, w.NewRegr, opts)
	if err != nil {
		return nil, err
	}
	return Combine(a, b, c, removalMode), nil
}

// Combine applies the set algebra to precomputed difference results:
// a = orig-regr vs new-regr, b = orig-correct vs new-correct,
// c = new-correct vs new-regr. The right-hand traces of a and c must be
// the same execution.
func Combine(a, b, c *diff.Result, removalMode bool) *Analysis {
	an := &Analysis{A: a, B: b, C: c}

	// Signatures of expected differences (set B), per side.
	bLeftSigs := sigSet(b.Left, b.DiffLeft)
	bRightSigs := sigSet(b.Right, b.DiffRight)

	var d []Ref
	if removalMode {
		// Regression caused by code removed in the new version: the
		// tell-tale differences are on the original side. Subtract both
		// the expected differences and anything the regression
		// differences set explains (C has no original-version trace, so
		// subtraction is by signature).
		cSigs := sigSet(c.Left, c.DiffLeft)
		for s := range sigSet(c.Right, c.DiffRight) {
			cSigs[s] = true
		}
		for _, eid := range a.DiffLeft {
			sig := EntrySignature(a.Left.Entries[eid])
			if !bLeftSigs[sig] && !cSigs[sig] {
				d = append(d, Ref{Orig, eid})
			}
		}
	} else {
		// Additive mode: the cause appears in the new version's regressing
		// execution — shared between A's right side and C's right side —
		// so the intersection is exact at the entry level.
		inC := make(map[trace.EntryID]bool, len(c.DiffRight))
		for _, eid := range c.DiffRight {
			inC[eid] = true
		}
		for _, eid := range a.DiffRight {
			if !inC[eid] {
				continue
			}
			if bRightSigs[EntrySignature(a.Right.Entries[eid])] {
				continue
			}
			d = append(d, Ref{New, eid})
		}
	}
	an.D = d
	an.Related = relatedSequences(a, d)
	an.Sizes = SetSizes{
		A: len(a.Sequences),
		B: len(b.Sequences),
		C: len(c.Sequences),
		D: len(an.Related),
	}
	return an
}

// relatedSequences finds the difference sequences of A containing at
// least one D entry.
func relatedSequences(a *diff.Result, d []Ref) []int {
	inD := make(map[Ref]bool, len(d))
	for _, r := range d {
		inD[r] = true
	}
	var out []int
	for i, seq := range a.Sequences {
		hit := false
		for _, eid := range seq.Left {
			if inD[Ref{Orig, eid}] {
				hit = true
				break
			}
		}
		if !hit {
			for _, eid := range seq.Right {
				if inD[Ref{New, eid}] {
					hit = true
					break
				}
			}
		}
		if hit {
			out = append(out, i)
		}
	}
	return out
}

// Signature canonicalizes a difference entry for cross-execution
// comparison: event kind, member, target class, and enclosing method —
// all as interned symbols, so signature sets are built and probed with
// word-sized keys instead of formatted strings. Run-specific details —
// locations, sequence numbers, and concrete values (which differ across
// test inputs) — are excluded so that the same program-level difference
// observed under different inputs matches.
type Signature struct {
	Kind   trace.EventKind
	Member trace.Sym
	Class  trace.Sym
	Method trace.Sym
	NArgs  int
}

// EntrySignature computes the signature of an entry, interning any
// symbol fields a hand-built entry may still be missing.
func EntrySignature(e trace.Entry) Signature {
	ev := e.Event
	return Signature{
		Kind:   ev.Kind,
		Member: trace.EnsureSym(ev.MemberSym, ev.Member),
		Class:  trace.EnsureSym(ev.Target.ClassSym, ev.Target.Class),
		Method: trace.EnsureSym(e.MethodSym, e.Method),
		NArgs:  len(ev.Args),
	}
}

func sigSet(t *trace.Trace, eids []trace.EntryID) map[Signature]bool {
	out := make(map[Signature]bool, len(eids))
	for _, eid := range eids {
		out[EntrySignature(t.Entries[eid])] = true
	}
	return out
}

// Report renders the analysis outcome: the candidate set in full context
// (the "semantic diff" of contribution 3), one block per related
// difference sequence.
func (an *Analysis) Report(max int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "regression analysis: |A|=%d |B|=%d |C|=%d -> %d regression-related sequence(s), %d candidate entrie(s)\n",
		an.Sizes.A, an.Sizes.B, an.Sizes.C, an.Sizes.D, len(an.D))
	for k, idx := range an.Related {
		if max > 0 && k >= max {
			fmt.Fprintf(&b, "... %d more sequences\n", len(an.Related)-max)
			break
		}
		seq := an.A.Sequences[idx]
		fmt.Fprintf(&b, "--- candidate %d (sequence %d, %s)\n", k+1, idx+1, seq.Kind)
		for _, eid := range seq.Left {
			fmt.Fprintf(&b, "  - %s\n", an.A.Left.Entries[eid])
		}
		for _, eid := range seq.Right {
			fmt.Fprintf(&b, "  + %s\n", an.A.Right.Entries[eid])
		}
	}
	return b.String()
}

// Evaluate scores the analysis against ground truth for the experiment
// harness: which D entries touch the known-changed methods/classes.
type Evaluation struct {
	TruePositives  int // related sequences touching ground-truth sites
	FalsePositives int // related sequences not touching any site
	FalseNegatives int // ground-truth sites with no related sequence
}

// EvaluateAgainst checks each related sequence for contact with the
// ground-truth site markers (substrings matched against entry renderings,
// e.g. a method or class name known to contain the injected change).
func (an *Analysis) EvaluateAgainst(sites []string) Evaluation {
	var ev Evaluation
	hitSites := make(map[string]bool, len(sites))
	for _, idx := range an.Related {
		seq := an.A.Sequences[idx]
		touched := false
		for _, site := range sites {
			if seqTouches(an.A, seq, site) {
				touched = true
				hitSites[site] = true
			}
		}
		if touched {
			ev.TruePositives++
		} else {
			ev.FalsePositives++
		}
	}
	for _, site := range sites {
		if !hitSites[site] {
			ev.FalseNegatives++
		}
	}
	return ev
}

func seqTouches(res *diff.Result, seq diff.Sequence, site string) bool {
	for _, eid := range seq.Left {
		if strings.Contains(res.Left.Entries[eid].String(), site) {
			return true
		}
	}
	for _, eid := range seq.Right {
		if strings.Contains(res.Right.Entries[eid].String(), site) {
			return true
		}
	}
	return false
}
