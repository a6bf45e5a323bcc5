package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// sample is `go test -run '^$' -bench . -benchmem -count 3` output over
// two packages, trimmed to the lines the reader has to tell apart.
const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkViewDiffMedium-2   	     100	  3000 ns/op	 900 B/op	  9 allocs/op	  1500 compares/op	  4 diffs/op
BenchmarkViewDiffMedium-2   	     100	  1000 ns/op	 700 B/op	  7 allocs/op	  1500 compares/op	  4 diffs/op
BenchmarkViewDiffMedium-2   	     100	  2000 ns/op	 800 B/op	  8 allocs/op	  1500 compares/op	  4 diffs/op
BenchmarkLCSDiffMedium-2    	      10	  8000 ns/op	 100 B/op	  1 allocs/op	 90000 compares/op
BenchmarkLCSDiffMedium-2    	      10	  8000 ns/op	 100 B/op	  1 allocs/op	 90000 compares/op
BenchmarkLCSDiffMedium-2    	      10	  8000 ns/op	 100 B/op	  1 allocs/op	 90000 compares/op
Benchmark   entries threads total
BenchmarkViewDiffParallel/workers=2-2         	      50	  500 ns/op	  0 B/op	  0 allocs/op
BenchmarkViewDiffParallel/workers=2-2         	      50	  500 ns/op	  0 B/op	  0 allocs/op
BenchmarkViewDiffParallel/workers=2-2         	      50	  500 ns/op	  0 B/op	  0 allocs/op
PASS
ok  	repro	12.345s
goos: linux
goarch: amd64
pkg: repro/capture/woven
cpu: Intel(R) Xeon(R) Processor
BenchmarkWeaveOverhead/unwoven-2     	1000000000	  2.000 ns/op	  0 B/op	  0 allocs/op
BenchmarkWeaveOverhead/hooks-off-2   	 300000000	  5.000 ns/op	  0 B/op	  0 allocs/op
BenchmarkWeaveOverhead/recording-2   	  10000000	  120.0 ns/op	  48.00 MB/s	 16 B/op	  1 allocs/op
PASS
ok  	repro/capture/woven	3.210s
`

func TestReadReport(t *testing.T) {
	rep, err := readReport(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]*Row{}
	for _, row := range rep.Benchmarks {
		rows[row.Pkg+":"+row.Name] = row
	}
	if len(rows) != 6 || len(rep.Benchmarks) != 6 {
		t.Fatalf("got rows %v, want 6", rows)
	}
	for _, tc := range []struct {
		key  string
		want Row
	}{{
		// -count 3 folds to the median, GOMAXPROCS suffix stripped,
		// custom units kept, and the ratio over LCS over the same pair.
		key: "repro:ViewDiffMedium",
		want: Row{Pkg: "repro", Name: "ViewDiffMedium", Runs: 3,
			NsPerOp: 2000, NsPerOpMin: 1000, NsPerOpMax: 3000, BytesPerOp: 800, AllocsPerOp: 8,
			Metrics: map[string]float64{"compares/op": 1500, "diffs/op": 4},
			Ratios:  map[string]float64{"LCSDiffMedium": 0.25}},
	}, {
		// A sub-benchmark with "/" and "=" in its name; its workers=1
		// baseline is absent, so the ratio is left out, not zero.
		key: "repro:ViewDiffParallel/workers=2",
		want: Row{Pkg: "repro", Name: "ViewDiffParallel/workers=2", Runs: 3,
			NsPerOp: 500, NsPerOpMin: 500, NsPerOpMax: 500},
	}, {
		// A "-" inside the name survives; only the numeric suffix goes.
		key: "repro/capture/woven:WeaveOverhead/hooks-off",
		want: Row{Pkg: "repro/capture/woven", Name: "WeaveOverhead/hooks-off", Runs: 1,
			NsPerOp: 5, NsPerOpMin: 5, NsPerOpMax: 5,
			Ratios: map[string]float64{"WeaveOverhead/unwoven": 2.5}},
	}, {
		key: "repro/capture/woven:WeaveOverhead/recording",
		want: Row{Pkg: "repro/capture/woven", Name: "WeaveOverhead/recording", Runs: 1,
			NsPerOp: 120, NsPerOpMin: 120, NsPerOpMax: 120, BytesPerOp: 16, AllocsPerOp: 1,
			Metrics: map[string]float64{"MB/s": 48},
			Ratios:  map[string]float64{"WeaveOverhead/unwoven": 60}},
	}} {
		got := rows[tc.key]
		if got == nil {
			t.Errorf("%s: missing", tc.key)
			continue
		}
		got.samples = nil
		if !reflect.DeepEqual(*got, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.key, *got, tc.want)
		}
	}
}

func TestReadReportRejects(t *testing.T) {
	for _, tc := range []struct{ name, input, want string }{
		{"duplicate package and name",
			sample + "pkg: repro\nBenchmarkViewDiffMedium-2 \t 100 \t 2000 ns/op\n",
			"duplicate benchmark repro:ViewDiffMedium"},
		{"cpu list", "pkg: repro\nBenchmarkX \t 1 \t 2 ns/op\nBenchmarkX-2 \t 1 \t 2 ns/op\n",
			"duplicate benchmark repro:X"},
		{"failed benchmark", "pkg: repro\n--- FAIL: BenchmarkX\nFAIL\trepro\t0.1s\n", "benchmark run failed"},
		{"no results", "PASS\nok  \trepro\t0.1s\n", "no benchmark results"},
	} {
		_, err := readReport(strings.NewReader(tc.input))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestWriteJSONReport pins the report's shape: one object per row with
// its package, and no field a ratio replaced.
func TestWriteJSONReport(t *testing.T) {
	var out bytes.Buffer
	if err := writeJSONReport(strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Benchmarks []map[string]any `json:"benchmarks"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	first := doc.Benchmarks[0]
	for _, key := range []string{"pkg", "name", "runs", "ns_per_op", "ns_per_op_min", "ns_per_op_max", "bytes_per_op", "allocs_per_op", "metrics", "ratios"} {
		if _, ok := first[key]; !ok {
			t.Errorf("row lacks %q: %v", key, first)
		}
	}
	if len(first) != 10 {
		t.Errorf("row has %d fields, want 10: %v", len(first), first)
	}
}
