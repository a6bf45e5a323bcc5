package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	rprism "repro"
	"repro/internal/trace"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the code %v", names, workloadNames)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end metrics differ:\n json %+v\n code %+v", b.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer metrics differ:\n json %+v\n code %+v", b.PerLayer, perLayerMetrics)
	}
}

func brief(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	return config{workload: workload, seed: 11, seconds: time.Second, trace: trace,
		dir: dir, out: dir}
}

// TestEveryWorkloadEmitsItsMetrics runs each workload briefly, untraced
// and traced, and checks that every metric BENCHMARK.json names comes
// out with its unit, from a run with no failures.
func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := run(brief(t, name, traced), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptedAnswerCountsAsFailure rewrites every answer after set-up
// and expects the oracle to count each request as failed.
func TestCorruptedAnswerCountsAsFailure(t *testing.T) {
	for _, name := range []string{triageWarm, ingestSearch} {
		cfg := brief(t, name, false)
		cfg.tamper = func(body []byte) []byte {
			for _, field := range []string{`"num_diffs": `, `"candidates": `, `"entries": `} {
				body = bytes.ReplaceAll(body, []byte(field), []byte(field+"1"))
			}
			return body
		}
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want every request failed",
				name, res.Correct, res.Attempted, res.Failed)
		}
	}
}

// TestWrongSearchAnswerFailsTheExhaustiveCheck swaps two hits of a
// search answer: the shape check passes it, the post-window exhaustive
// check must not.
func TestWrongSearchAnswerFailsTheExhaustiveCheck(t *testing.T) {
	w, err := generate(ingestSearch, 11)
	if err != nil {
		t.Fatal(err)
	}
	o := &oracle{w: w}
	initial := make([]trace.Digest, len(w.corpus))
	for i, u := range w.corpus {
		initial[i] = u.id
	}
	q := initial[0]
	dist := make(map[[2]trace.Digest]int)
	for i, id := range initial[1:] {
		dist[[2]trace.Digest{q, id}] = i // distinct distances, in corpus order
	}
	s := &searchSeen{query: q}
	s.res.Corpus = len(initial) - 1
	for _, id := range initial[1 : 1+searchK] {
		s.res.Hits = append(s.res.Hits, rprism.SearchHit{ID: id.String(), NumDiffs: dist[[2]trace.Digest{q, id}], Entries: corpusLen})
	}
	if !o.searchMatches(s, initial, nil, dist) {
		t.Fatal("the exhaustive top-K was rejected")
	}
	s.res.Hits[0].ID, s.res.Hits[1].ID = s.res.Hits[1].ID, s.res.Hits[0].ID
	if o.searchMatches(s, initial, nil, dist) {
		t.Error("a top-K with two hits swapped was accepted")
	}
}

// TestSameSeedSameInputs generates every workload twice from one seed,
// and once from another.
func TestSameSeedSameInputs(t *testing.T) {
	fingerprint := func(w *workload) []string {
		var out []string
		for _, u := range w.corpus {
			out = append(out, u.id.String())
		}
		for _, rs := range [][]*request{w.diffs, w.regrs, w.queries} {
			for _, r := range rs {
				out = append(out, string(r.body))
			}
		}
		if w.puts != nil {
			for i := 0; i < 5; i++ {
				u, _, err := w.puts.next()
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, u.id.String())
			}
		}
		return out
	}
	for _, name := range workloadNames {
		var prints [][]string
		for _, seed := range []int64{5, 5, 6} {
			w, err := generate(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			prints = append(prints, fingerprint(w))
		}
		if !reflect.DeepEqual(prints[0], prints[1]) {
			t.Errorf("%s: seed 5 generated different inputs twice", name)
		}
		if reflect.DeepEqual(prints[0], prints[2]) {
			t.Errorf("%s: seeds 5 and 6 generated the same inputs", name)
		}
	}
}
