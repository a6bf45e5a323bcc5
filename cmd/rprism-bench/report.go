package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Row is one benchmark of the report, folded over its repeated runs
// (`go test -count N`): the median of every unit, plus the min and max
// of ns/op.
type Row struct {
	Pkg         string  `json:"pkg"`
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerOpMin  float64 `json:"ns_per_op_min"`
	NsPerOpMax  float64 `json:"ns_per_op_max"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds the units a benchmark reports beyond the standard
	// three (b.ReportMetric, b.SetBytes): compares/op, entries/s, ...
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Ratios maps a baseline row's name to this row's ns/op divided by
	// the baseline's, for every baseline of ratioPairs present in the run.
	Ratios map[string]float64 `json:"ratios,omitempty"`

	samples map[string][]float64 // unit -> one value per run
}

// Report is the document `rprism-bench -json` writes.
type Report struct {
	Benchmarks []*Row `json:"benchmarks"`
}

// ratioPairs pairs rows that measure the same input, each as
// "package:name" with the Benchmark prefix and GOMAXPROCS suffix
// stripped: the first row's ns/op over the second's.
var ratioPairs = [][2]string{
	{"repro:ViewDiffMedium", "repro:LCSDiffMedium"},
	{"repro:EngineDiffCached/engine", "repro:EngineDiffCached/webs"},
	{"repro:ServeDiffConcurrent/cached", "repro:ServeDiffConcurrent/rebuild"},
	{"repro:ViewDiffParallel/workers=2", "repro:ViewDiffParallel/workers=1"},
	{"repro:ViewDiffParallel/workers=4", "repro:ViewDiffParallel/workers=1"},
	{"repro:ViewDiffParallel/workers=8", "repro:ViewDiffParallel/workers=1"},
	{"repro:TopKPruned", "repro:TopKExhaustive"},
	{"repro:SketchCompute", "repro/internal/corpus:CorpusScale/put/traces=1"},
	{"repro/internal/corpus:CorpusScale/get-miss/traces=1000", "repro/internal/corpus:CorpusScale/get-miss/traces=1"},
	{"repro/internal/corpus:CorpusScale/put/traces=1000", "repro/internal/corpus:CorpusScale/put/traces=1"},
	{"repro/internal/corpus:BlobGet/cold", "repro/internal/corpus:BlobGet/hydrated"},
	{"repro/internal/trace:RSEGIngest", "repro/internal/trace:JSONLIngest"},
	{"repro/internal/trace:RSEGLoad", "repro/internal/trace:JSONLIngest"},
	{"repro/internal/sentinel:SentinelIncrementalRediff/incremental", "repro/internal/sentinel:SentinelIncrementalRediff/full"},
	{"repro/capture/woven:WeaveOverhead/hooks-off", "repro/capture/woven:WeaveOverhead/unwoven"},
	{"repro/capture/woven:WeaveOverhead/recording", "repro/capture/woven:WeaveOverhead/unwoven"},
	{"repro/internal/server:ServeDiffCluster/forwarded", "repro/internal/server:ServeDiffCluster/local"},
}

// procSuffix is the -GOMAXPROCS suffix go test appends to a benchmark
// name when GOMAXPROCS > 1.
var procSuffix = regexp.MustCompile(`-\d+$`)

// readReport parses `go test -bench` output. Repeats of one benchmark
// come on consecutive lines; the same package and name anywhere else
// (two runs concatenated, or a -cpu list) is an error, as is any
// failure line.
func readReport(r io.Reader) (*Report, error) {
	var (
		rows      []*Row
		byKey     = map[string]*Row{}
		pkg, last string
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") {
			return nil, fmt.Errorf("benchmark run failed: %s", line)
		}
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // not a result line (benchmark output that starts with "Benchmark")
		}
		name := procSuffix.ReplaceAllString(strings.TrimPrefix(f[0], "Benchmark"), "")
		key := pkg + ":" + name
		row := byKey[key]
		if row == nil {
			row = &Row{Pkg: pkg, Name: name, samples: map[string][]float64{}}
			byKey[key] = row
			rows = append(rows, row)
		} else if last != pkg+":"+f[0] {
			return nil, fmt.Errorf("duplicate benchmark %s", key)
		}
		last = pkg + ":" + f[0]
		row.Runs++
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: value %q: %w", key, f[i], err)
			}
			row.samples[f[i+1]] = append(row.samples[f[i+1]], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, errors.New("no benchmark results in the input")
	}
	for _, row := range rows {
		row.fold()
	}
	for _, p := range ratioPairs {
		row, base := byKey[p[0]], byKey[p[1]]
		if row == nil || base == nil || base.NsPerOp == 0 {
			continue
		}
		if row.Ratios == nil {
			row.Ratios = map[string]float64{}
		}
		row.Ratios[base.Name] = row.NsPerOp / base.NsPerOp
	}
	return &Report{Benchmarks: rows}, nil
}

// fold sets the row's fields from its samples.
func (row *Row) fold() {
	for unit, vs := range row.samples {
		sort.Float64s(vs)
		med := vs[len(vs)/2]
		if len(vs)%2 == 0 {
			med = (vs[len(vs)/2-1] + med) / 2
		}
		switch unit {
		case "ns/op":
			row.NsPerOp, row.NsPerOpMin, row.NsPerOpMax = med, vs[0], vs[len(vs)-1]
		case "B/op":
			row.BytesPerOp = med
		case "allocs/op":
			row.AllocsPerOp = med
		default:
			if row.Metrics == nil {
				row.Metrics = map[string]float64{}
			}
			row.Metrics[unit] = med
		}
	}
}

// writeJSONReport reads `go test -bench` output from r and writes the
// report to w.
func writeJSONReport(r io.Reader, w io.Writer) error {
	report, err := readReport(r)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
