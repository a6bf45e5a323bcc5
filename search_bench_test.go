package rprism

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/subjects"
)

// benchSearchCorpus materializes the 200-trace benchmark corpus: 10
// families × 20 variants, ~300 entries each, all view-webs pre-built so
// the timed region measures search strategy rather than first-touch
// decode cost. (20 variants per family keeps the whole top-10
// within one family, which is what gives the sketch bounds something
// to prune against.) Returns the engine and the digest of fam01-var00.
func benchSearchCorpus(b *testing.B) (*Engine, Digest) {
	b.Helper()
	store, err := corpus.New(b.TempDir(), corpus.Options{
		TraceCacheSize: 256, WebCacheSize: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	var query Digest
	for fam := 1; fam <= 10; fam++ {
		for v := 0; v < 20; v++ {
			id, _, err := store.Put(subjects.GenCorpusTrace(fam, v, 300))
			if err != nil {
				b.Fatal(err)
			}
			if fam == 1 && v == 0 {
				query = id
			}
			if _, err := store.ViewsCtx(context.Background(), id); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := store.EnsureIndexed(); err != nil {
		b.Fatal(err)
	}
	return NewEngine(WithCorpus(store)), query
}

// BenchmarkTopKPruned and BenchmarkTopKExhaustive are the headline
// pair: identical top-10 results (asserted outside the timer), with the
// pruned scan skipping every candidate whose sketch lower bound proves
// it cannot displace the Kth-best exact distance. Compare with
//
//	go test -bench 'TopK(Pruned|Exhaustive)$' -benchtime=5x .
func BenchmarkTopKPruned(b *testing.B) {
	eng, query := benchSearchCorpus(b)
	ctx := context.Background()
	pruned, err := eng.Search(ctx, FromCorpus(query), SearchOptions{K: 10})
	if err != nil {
		b.Fatal(err)
	}
	exhaustive, err := eng.Search(ctx, FromCorpus(query), SearchOptions{K: 10, Exhaustive: true})
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(pruned.Hits, exhaustive.Hits) {
		b.Fatal("pruned top-10 differs from exhaustive baseline")
	}
	if pruned.Pruned == 0 {
		b.Fatal("pruned search evaluated the whole corpus")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pruned, err = eng.Search(ctx, FromCorpus(query), SearchOptions{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pruned.Evaluated), "evaluated/op")
}

func BenchmarkTopKExhaustive(b *testing.B) {
	eng, query := benchSearchCorpus(b)
	ctx := context.Background()
	b.ResetTimer()
	var res *SearchResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = eng.Search(ctx, FromCorpus(query), SearchOptions{K: 10, Exhaustive: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Evaluated), "evaluated/op")
}

// BenchmarkSketchCompute isolates the per-Put sketching cost. Its trace
// is the first one BenchmarkCorpusScale's put/traces=1 row stores, so
// the ratio of the two bounds the ingest overhead the index adds — the
// acceptance budget is <5% of Store.Put.
func BenchmarkSketchCompute(b *testing.B) {
	tr := subjects.GenCorpusTrace(99, 1, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.SketchTrace(tr)
	}
}

func BenchmarkClusterCorpus(b *testing.B) {
	eng, _ := benchSearchCorpus(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ClusterCorpus(ctx, ClusterOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
