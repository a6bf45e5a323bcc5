package regression_test

import (
	"testing"

	"repro/internal/diff"
	"repro/internal/experiments"
	"repro/internal/regression"
	"repro/internal/views"
)

// BenchmarkRegressionQuadrupleCached measures the three passes of a §4.1
// regression over pre-built webs: the exploration-heavy hot path, whose
// diffs explore hundreds of linked-view windows each. ns/compare is the
// wall time per =e compare, all other work of the row included.
func BenchmarkRegressionQuadrupleCached(b *testing.B) {
	quad, err := experiments.RhinoQuad()
	if err != nil {
		b.Fatal(err)
	}
	webs := regression.Webs{
		OrigCorrect: views.Build(quad.OrigCorrect), NewCorrect: views.Build(quad.NewCorrect),
		OrigRegr: views.Build(quad.OrigRegr), NewRegr: views.Build(quad.NewRegr),
	}
	b.ReportAllocs()
	b.ResetTimer()
	var an *regression.Analysis
	for i := 0; i < b.N; i++ {
		if an, err = regression.AnalyzeWebs(webs, false, diff.ViewOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	compares := an.A.Stats.Compares + an.B.Stats.Compares + an.C.Stats.Compares
	b.ReportMetric(float64(compares), "compares/op")
	b.ReportMetric(float64(an.A.NumDiffs()+an.B.NumDiffs()+an.C.NumDiffs()), "diffs/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*compares), "ns/compare")
}
