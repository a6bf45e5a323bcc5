package rprism

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/subjects"
	"repro/internal/trace"
)

// TestFromSessionLiveDiff checks the engine-level live-source semantics:
// FromSession resolves to a fresh snapshot per analysis, so the same
// Source value sees the session grow between calls — unlike every other
// (memoized) source.
func TestFromSessionLiveDiff(t *testing.T) {
	store, err := corpus.New(t.TempDir(), corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(WithCorpus(store))
	ctx := context.Background()

	mk := func(n int, bias string) *trace.Trace {
		tr := trace.New("s")
		for i := 0; i < n; i++ {
			obj := trace.Repr{Loc: trace.Loc(1 + i%5), Class: "C", Seq: 1 + i%5}
			tr.Append(0, "C.m/0", obj, trace.Event{Kind: trace.KindSet, Target: obj, Member: "f",
				Args: []trace.Repr{trace.PrimRepr("Int", fmt.Sprint(i%7)+bias)}})
		}
		return tr
	}
	baseline := mk(120, "")
	baseID, _, err := store.Put(baseline)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := store.OpenSession("live")
	if err != nil {
		t.Fatal(err)
	}
	grow := mk(120, "x")
	if _, err := sess.Append(grow.Entries[:40]); err != nil {
		t.Fatal(err)
	}
	live := FromSession(sess)

	d1, err := eng.Diff(ctx, live, FromCorpus(baseID))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Append(grow.Entries[40:]); err != nil {
		t.Fatal(err)
	}
	d2, err := eng.Diff(ctx, live, FromCorpus(baseID))
	if err != nil {
		t.Fatal(err)
	}
	if d1.Left.Len() >= d2.Left.Len() {
		t.Errorf("same Source did not see session growth: %d then %d entries",
			d1.Left.Len(), d2.Left.Len())
	}
	if d2.NumDiffs() == 0 {
		t.Error("biased live session diffs clean against baseline")
	}

	// The trace path resolves live too (LCS baseline needs raw traces).
	if _, err := eng.DiffLCS(ctx, live, FromCorpus(baseID), LCSOptions{}); err != nil {
		t.Errorf("DiffLCS over a live session: %v", err)
	}

	if _, err := eng.Diff(ctx, FromSession(nil), FromCorpus(baseID)); err == nil {
		t.Error("FromSession(nil) resolved")
	}
}

// TestWatchEvaluationFollowsSlotBudget pins the intra-diff width rule
// for watch evaluations: each evaluation holds one WithWorkers slot and
// re-diffs at most 1 + the slots free when it starts wide, like any
// other analysis's diff.
func TestWatchEvaluationFollowsSlotBudget(t *testing.T) {
	store, err := corpus.New(t.TempDir(), corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(WithCorpus(store), WithWorkers(3), WithDiffParallelism(4),
		WithSentinelOptions(SentinelOptions{Debounce: -1}))
	defer eng.Close()
	ctx := context.Background()
	baseID, _, err := store.Put(subjects.GenCorpusTrace(3, 0, 300))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := store.OpenSession("live")
	if err != nil {
		t.Fatal(err)
	}
	live := subjects.GenCorpusTrace(3, 1, 300)
	if _, err := sess.Append(live.Entries[:100]); err != nil {
		t.Fatal(err)
	}

	// Every slot but the evaluation's own is held: width 1.
	_, release1, err := eng.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, release2, err := eng.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	w, err := eng.WatchSession(ctx, sess.ID(), WatchConfig{Baseline: baseID.String()})
	if err != nil {
		t.Fatal(err)
	}
	awaitEvaluations := func(n int64) WatchInfo {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if info := w.Info(); info.Evaluations >= n {
				return info
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("watch did not reach %d evaluations", n)
		return WatchInfo{}
	}
	if info := awaitEvaluations(1); info.LastWidth != 1 {
		t.Errorf("evaluation with every other slot held ran %d wide, want 1", info.LastWidth)
	}

	// Both slots free again: 1 + 2, under the requested 4.
	release1()
	release2()
	if _, err := sess.Append(live.Entries[100:]); err != nil {
		t.Fatal(err)
	}
	if info := awaitEvaluations(2); info.LastWidth != 3 {
		t.Errorf("evaluation with two free slots ran %d wide, want 3", info.LastWidth)
	}
}
