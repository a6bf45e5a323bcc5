package sentinel

import (
	"context"
	"testing"

	"repro/internal/diff"
	"repro/internal/trace"
	"repro/internal/views"
)

// BenchmarkSentinelIncrementalRediff measures the sentinel's steady
// state: a watched session that already matches its baseline takes one
// more small single-thread segment, and the watch re-diffs. The
// incremental sub-benchmark recomputes only the dirty thread pairs
// (here 1 of 16 — the quiet-session regime the O(dirty pairs) claim is
// about); the full sub-benchmark is what every evaluation would cost
// without the cache.
//
//	go test ./internal/sentinel/ -bench SentinelIncrementalRediff -benchtime 2s
func BenchmarkSentinelIncrementalRediff(b *testing.B) {
	const tailLen = 128
	base := fixture(16000, 16)
	wl := views.Build(base)
	live := trace.New("live")
	for _, e := range base.Entries {
		live.Append(e.TID, e.Method, e.Self, e.Event)
	}
	obj := trace.Repr{Loc: trace.Loc(999), Class: "Quiet", Seq: 1}
	for k := 0; k < tailLen; k++ {
		live.Append(0, "Quiet.tick/0", obj,
			trace.Event{Kind: trace.KindCall, Target: obj, Member: "Quiet.tick/0"})
	}
	ib := views.NewIncrementalBuilder("live")
	if err := ib.Append(live.Entries[:base.Len()]); err != nil {
		b.Fatal(err)
	}
	snap0 := ib.Snapshot()
	if err := ib.Append(live.Entries[base.Len():]); err != nil {
		b.Fatal(err)
	}
	snap1 := ib.Snapshot()
	ctx := context.Background()

	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		var st diff.IncrementalStats
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			inc := diff.NewIncremental(wl, diff.ViewOptions{})
			if _, _, err := inc.Rediff(ctx, snap0, 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			var err error
			if _, st, err = inc.Rediff(ctx, snap1, 0); err != nil {
				b.Fatal(err)
			}
		}
		if st.Pairs > 0 {
			b.ReportMetric(float64(st.Dirty)/float64(st.Pairs), "dirty_ratio")
		}
		if b.Elapsed() > 0 {
			b.ReportMetric(float64(tailLen)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := diff.ViewDiffWebsCtx(ctx, wl, snap1, diff.ViewOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
