package diff

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/views"
)

// synthTraceMT builds a deterministic synthetic trace of n entries spread
// over several threads, rich enough to produce all four view types. The
// threads have no fork ancestry, so MatchThreads pairs them greedily by
// spawn order — deterministic, which is all the equivalence tests need.
func synthTraceMT(name string, n, threads int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	t := trace.New(name)
	methods := []string{"A.run/0", "B.step/1", "C.emit/1"}
	for i := 0; i < n; i++ {
		tid := trace.ThreadID(rng.Intn(threads))
		obj := trace.Repr{Loc: trace.Loc(1 + rng.Intn(6)), Class: "C", Seq: 1 + rng.Intn(6)}
		val := trace.PrimRepr("Int", fmt.Sprint(rng.Intn(20)))
		var ev trace.Event
		switch rng.Intn(4) {
		case 0:
			ev = trace.Event{Kind: trace.KindGet, Target: obj, Member: "f", Args: []trace.Repr{val}}
		case 1:
			ev = trace.Event{Kind: trace.KindSet, Target: obj, Member: "f", Args: []trace.Repr{val}}
		case 2:
			ev = trace.Event{Kind: trace.KindCall, Target: obj, Member: methods[rng.Intn(3)], Args: []trace.Repr{val}}
		default:
			ev = trace.Event{Kind: trace.KindReturn, Target: obj, Member: methods[rng.Intn(3)]}
		}
		t.Append(tid, methods[rng.Intn(3)], obj, ev)
	}
	return t
}

// awaitGoroutines waits for the goroutine count to drop back to the
// baseline, tolerating runtime bookkeeping goroutines that need a moment
// to exit. It fails the test with a full stack dump if workers leak.
func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutine leak: %d running, baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}

// TestParallelDiffMatchesSerial is the equivalence property of the
// parallel refactor: for randomized multithreaded trace pairs, the diff
// at every worker count deep-equals the serial result — sequences,
// similarity sets, difference sets, and Stats included. The CI race job
// runs this under -race at -cpu=1,2,4.
func TestParallelDiffMatchesSerial(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for seed := int64(1); seed <= 6; seed++ {
		threads := 1 + int(seed)%4
		l := synthTraceMT("l", 300+int(seed*37)%200, threads, seed)
		r := mutateTrace(l, seed+100)
		wl, wr := views.Build(l), views.Build(r)

		serial := ViewDiffWebs(wl, wr, ViewOptions{Parallelism: 1})
		for _, workers := range []int{2, 4, 8} {
			par := ViewDiffWebs(wl, wr, ViewOptions{Parallelism: workers})
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("seed %d, workers=%d: parallel result diverged from serial\n"+
					"serial: diffs=%d seqs=%d stats=%+v\n"+
					"parallel: diffs=%d seqs=%d stats=%+v",
					seed, workers,
					serial.NumDiffs(), len(serial.Sequences), serial.Stats,
					par.NumDiffs(), len(par.Sequences), par.Stats)
			}
		}
	}
	awaitGoroutines(t, baseline)
}

// TestParallelDiffCancellation proves all units unwind promptly: a
// pre-canceled context fails before any unit starts, and a cancellation
// mid-evaluation returns within a bounded delay with every worker
// goroutine gone.
func TestParallelDiffCancellation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// Two unrelated random traces diverge massively, making the diff far
	// slower than the cancellation lag below.
	l := synthTraceMT("l", 6000, 4, 5)
	r := synthTraceMT("r", 6000, 4, 99)
	wl, wr := views.Build(l), views.Build(r)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ViewDiffWebsCtx(ctx, wl, wr, ViewOptions{Parallelism: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: err = %v, want context.Canceled", err)
	}
	awaitGoroutines(t, baseline)

	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ViewDiffWebsCtx(ctx, wl, wr, ViewOptions{Parallelism: 4})
		done <- err
	}()
	time.Sleep(2 * time.Millisecond) // let units get into their hot loops
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		// A nil error would mean the whole diff beat a 2ms cancel — on
		// this workload that indicates the unwind path was skipped.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-flight cancel: err = %v, want context.Canceled", err)
		}
		if lag := time.Since(start); lag > 2*time.Second {
			t.Errorf("units took %v to unwind after cancel", lag)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("diff did not unwind after cancellation")
	}
	awaitGoroutines(t, baseline)
}

// TestSerialPathSpawnsNoGoroutines pins the Parallelism=1 contract: the
// serial path is today's inline evaluation, not a one-worker pool.
func TestSerialPathSpawnsNoGoroutines(t *testing.T) {
	l := synthTraceMT("l", 200, 3, 7)
	r := mutateTrace(l, 8)
	wl, wr := views.Build(l), views.Build(r)
	before := runtime.NumGoroutine()
	ViewDiffWebs(wl, wr, ViewOptions{Parallelism: 1})
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("serial diff grew the goroutine count %d -> %d", before, after)
	}
}
