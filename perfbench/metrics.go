package main

// metricDef names one reported metric; the lists below are the ones
// BENCHMARK.json declares, in the same order.
type metricDef struct {
	Name, Unit, Better string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics are reported by every untraced run. Each workload has
// a lead op and a side op: diff and regression on triage-*, search and
// put on ingest-search.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"lead_p50_ms", "ms", "lower"},
	{"lead_p90_ms", "ms", "lower"},
	{"side_p50_ms", "ms", "lower"},
	{"side_p90_ms", "ms", "lower"},
	{"heap_live_mb", "MiB", "lower"},
	{"disk_bytes_per_entry", "bytes", "lower"},
}

// perLayerMetrics are reported by every traced run.
var perLayerMetrics = []metricDef{
	{"server.http_hop_ms", "ms", "lower"},
	{"server.handler_overhead_ms", "ms", "lower"},
	{"server.response_bytes", "bytes", "lower"},
	{"server.rejected", "count", "lower"},
	{"engine.diff_ms", "ms", "lower"},
	{"engine.regression_ms", "ms", "lower"},
	{"engine.search_ms", "ms", "lower"},
	{"corpus.resolve_ms", "ms", "lower"},
	{"corpus.get_miss_ms", "ms", "lower"},
	{"corpus.trace_hit_ratio", "ratio", "higher"},
	{"corpus.web_hit_ratio", "ratio", "higher"},
	{"corpus.web_builds", "count", "lower"},
	{"corpus.evictions", "count", "lower"},
	{"corpus.put_ms", "ms", "lower"},
	{"blob.get_ms", "ms", "lower"},
	{"blob.put_ms", "ms", "lower"},
	{"blob.hydrations", "count", "lower"},
	{"blob.bytes_down", "bytes", "lower"},
	{"blob.retries", "count", "lower"},
	{"blob.disk_evictions", "count", "lower"},
	{"trace.upload_decode_ms", "ms", "lower"},
	{"trace.entries_per_req", "count", "higher"},
	{"views.build_ms", "ms", "lower"},
	{"views.builds_per_req", "count", "lower"},
	{"views.mem_bytes", "bytes", "lower"},
	{"diff.ms", "ms", "lower"},
	{"diff.compares", "count", "lower"},
	{"diff.explorations", "count", "lower"},
	{"diff.mem_bytes", "bytes", "lower"},
	{"regression.pass_a_ms", "ms", "lower"},
	{"regression.pass_b_ms", "ms", "lower"},
	{"regression.pass_c_ms", "ms", "lower"},
	{"regression.combine_ms", "ms", "lower"},
	{"index.sketch_ms", "ms", "lower"},
	{"search.evaluated", "count", "lower"},
	{"search.evaluated_per_hit", "ratio", "lower"},
	{"runtime.alloc_bytes_per_req", "bytes", "lower"},
	{"runtime.gc_cycles_per_req", "count", "lower"},
	{"unaccounted_share", "ratio", "lower"},
	{"tracing_overhead", "ratio", "lower"},
	{"share.http", "ratio", "lower"},
	{"share.server", "ratio", "lower"},
	{"share.engine", "ratio", "lower"},
	{"share.corpus", "ratio", "lower"},
	{"share.blob", "ratio", "lower"},
	{"share.trace", "ratio", "lower"},
	{"share.index", "ratio", "lower"},
	{"share.views", "ratio", "lower"},
	{"share.diff", "ratio", "lower"},
	{"share.regression", "ratio", "lower"},
}
