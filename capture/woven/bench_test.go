package woven

import (
	"testing"

	"repro/capture"
)

// BenchmarkWeaveOverhead measures what a woven function pays per call in
// the three states a woven binary runs in: hooks disabled (the common
// case — the binary was built woven but is not being recorded), hooks
// recording to an in-memory-buffered disk sink, and the unwoven
// baseline (a plain function call).

//go:noinline
func unwovenStep(n int) int { return n + 1 }

//go:noinline
func wovenStep(n int) int {
	defer Enter("bench.wovenStep/1")()
	return n + 1
}

func BenchmarkWeaveOverhead(b *testing.B) {
	b.Run("unwoven", func(b *testing.B) {
		acc := 0
		for i := 0; i < b.N; i++ {
			acc = unwovenStep(acc)
		}
		_ = acc
	})
	b.Run("hooks-off", func(b *testing.B) {
		Attach(nil)
		acc := 0
		for i := 0; i < b.N; i++ {
			acc = wovenStep(acc)
		}
		_ = acc
	})
	b.Run("recording", func(b *testing.B) {
		rec, err := capture.Start(capture.Options{Name: "bench", Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		Attach(rec)
		defer func() {
			Attach(nil)
			rec.Close()
		}()
		b.ResetTimer()
		acc := 0
		for i := 0; i < b.N; i++ {
			acc = wovenStep(acc)
		}
		_ = acc
	})
}
