package rprism

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/subjects"
)

// FuzzAnalysisParams feeds arbitrary bytes as the JSON params of a diff
// run. Params are untrusted request input that reaches the differ's
// worker goroutines, where a panic is outside any handler's recover and
// kills the process: a run may return a result or an error, never panic.
func FuzzAnalysisParams(f *testing.F) {
	eng := NewEngine(WithWorkers(4))
	req := AnalysisRequest{Sources: map[string]Source{
		"left":  FromTrace(subjects.GenCorpusTrace(3, 0, 300)),
		"right": FromTrace(subjects.GenCorpusTrace(3, 1, 300)),
	}}
	f.Add([]byte(`{"window":-1,"parallelism":4}`))
	f.Add([]byte(`{"window":9223372036854775807,"parallelism":4}`))
	f.Add([]byte(`{"quick_scan":1048576}`))

	f.Fuzz(func(t *testing.T, params []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		req := req
		req.Params = json.RawMessage(params)
		_, _ = eng.RunAnalysis(ctx, "diff", req)
	})
}
