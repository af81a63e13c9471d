package main

// metricDef is one metric of the result line. The two catalogs below
// mirror the end_to_end and per_layer lists of BENCHMARK.json
// (TestCatalogMatchesBenchmarkJSON keeps them in step).
type metricDef struct {
	name     string
	unit     string
	required bool // every workload measures it (end-to-end metrics)
}

// endToEnd holds the metrics a user sees, measured on every workload
// with tracing off. What "operation" means per workload is documented in
// README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"p50_ms", "ms", true},
	{"tail_ms", "ms", true},
	{"sessions_per_core", "sessions", true},
	{"alloc_mb", "MB", true},
	{"heap_mb", "MB", true},
}

// perLayer holds the traced run's per-layer metrics. A workload that
// bypasses a layer reports zero for it.
var perLayer = []metricDef{
	{"kernel.build_ms", "ms", false},
	{"kernel.table_kib", "KiB", false},
	{"energy.char_ms", "ms", false},
	{"energy.builds", "count", false},
	{"energy.hit_ratio", "ratio", false},
	{"core.evaluate_ms", "ms", false},
	{"core.evaluations", "count", false},
	{"core.hit_ratio", "ratio", false},
	{"pipeline.run_ms", "ms", false},
	{"pipeline.ns_per_sample", "ns", false},
	{"detector.ms", "ms", false},
	{"metrics.ms", "ms", false},
	{"dse.self_ms", "ms", false},
	{"dse.candidates", "count", false},
	{"serve.ingest_ms", "ms", false},
	{"serve.drain_ms", "ms", false},
	{"serve.busy_ratio", "ratio", false},
	{"serve.batch_ns_per_sample", "ns", false},
	{"serve.detector_ns_per_sample", "ns", false},
	{"serve.backlog_max_samples", "samples", false},
	{"serve.backlog_slope", "samples/s", false},
	{"serve.backpressure", "count", false},
	{"serve.evictions", "count", false},
	{"loadgen.late_p99_ms", "ms", false},
	{"loadgen.flagged", "count", false},
	{"wire.extra_ns_per_sample", "ns", false},
	{"wire.sessions_360hz", "sessions", false},
	{"wire.frames", "count", false},
	{"wire.drains", "count", false},
	{"wire.nacks", "count", false},
	{"wire.shed", "count", false},
	{"wire.errors", "count", false},
	{"wire.resyncs", "count", false},
	{"wire.reconnects", "count", false},
	{"trace.total_ms", "ms", false},
	{"trace.residual_pct", "%", false},
	{"trace.ladder_residual_pct", "%", false},
	{"trace.overhead_ms", "ms", false},
	{"trace.spans", "count", false},
}
