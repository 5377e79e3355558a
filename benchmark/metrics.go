package main

// metricDef names one metric with its unit and the direction in which
// it improves. BENCHMARK.json at the repository root lists the same
// names; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is, for an end-to-end metric, the share of the parent's
	// median by which the metric may worsen before it counts as a
	// regression — and the bound inside which two runs of identical
	// code must agree. Everything has the widest bound the driver allows:
	// identical CPU-bound work drifts by 15 % over minutes on the box this
	// was cut on, and where the collector's cycles fall in a pass moves the
	// peak memory of identical work by 8 % (README.md, "Noise").
	bound float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; README.md says what the latencies mean on
// the workloads that have no open loop.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rows_per_s", "rows/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"claim_lat_p50_ms", "ms", "lower", 0.25},
	{"claim_lat_p99_ms", "ms", "lower", 0.25},
	{"close_lat_p50_ms", "ms", "lower", 0.25},
	{"close_lat_p99_ms", "ms", "lower", 0.25},
}

// perLayer are the metrics of single layers (layer = package). The
// first group is read from outside during an end-to-end repetition,
// the rest come from the traced replay. A metric that does not exist
// on a workload (the runtime layer on virt-tpch) reads 0.
var perLayer = []metricDef{
	{name: "proc.cpu_ns_per_row", unit: "ns/row", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.page_faults", unit: "count", better: "lower"},
	{name: "proc.heap_peak_mb", unit: "MB", better: "lower"},
	{name: "gen.write_blocked_share", unit: "share", better: "higher"},
	{name: "gen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "gen.backlog_rows", unit: "rows", better: "lower"},
	{name: "runtime.ring.full_total", unit: "count", better: "lower"},
	{name: "runtime.ring.recycled_share", unit: "share", better: "higher"},
	{name: "runtime.serve.rows_per_tick", unit: "rows", better: "higher"},
	{name: "runtime.serve.vt_per_wall", unit: "ratio", better: "lower"},
	{name: "core.triggers", unit: "count", better: "lower"},
	{name: "core.plans_applied", unit: "count", better: "higher"},
	{name: "core.plans_skipped", unit: "count", better: "lower"},

	{name: "runtime.wire.encode.ns_per_row", unit: "ns/row", better: "lower"},
	{name: "runtime.wire.decode.ns_per_row", unit: "ns/row", better: "lower"},
	{name: "runtime.ring.handoff.ns_per_block", unit: "ns/block", better: "lower"},
	{name: "engine.tick.ns_per_row", unit: "ns/row", better: "lower"},
	{name: "engine.route_tick.ns_per_row", unit: "ns/row", better: "lower"},
	{name: "engine.close.ms_per_window", unit: "ms", better: "lower"},
	{name: "engine.results_per_window", unit: "count", better: "lower"},
	{name: "engine.keyof_block.ns_per_row", unit: "ns/row", better: "lower"},
	{name: "keyspace.groups_of_keys.ns_per_key", unit: "ns/key", better: "lower"},
	{name: "stats.sample.ns_per_row", unit: "ns/row", better: "lower"},
	{name: "tpch.gen.ns_per_row", unit: "ns/row", better: "lower"},
	{name: "core.tick.ns_per_row", unit: "ns/row", better: "lower"},
	{name: "core.overhead.ns_per_row", unit: "ns/row", better: "lower"},
	{name: "core.solve_tick.ms", unit: "ms", better: "lower"},
	{name: "core.solve_tick.share", unit: "share", better: "lower"},
	{name: "optimizer.solve.ms", unit: "ms", better: "lower"},
	{name: "optimizer.solve.nodes", unit: "count", better: "lower"},
	{name: "optimizer.greedy.ms", unit: "ms", better: "lower"},
	{name: "replay.rows_per_s", unit: "rows/s", better: "higher"},

	{name: "aqe.applied", unit: "count", better: "higher"},
	{name: "aqe.pause_vs", unit: "vs", better: "lower"},
	{name: "engine.alignment_bytes", unit: "bytes", better: "lower"},
	{name: "engine.staged_bytes", unit: "bytes", better: "lower"},
	{name: "checkpoint.completed", unit: "count", better: "higher"},
	{name: "checkpoint.bytes", unit: "bytes", better: "lower"},
	{name: "netsim.bytes_net", unit: "bytes", better: "lower"},
	{name: "netsim.utilization", unit: "share", better: "lower"},
	{name: "virt.model_tuples_per_vs", unit: "tuples/vs", better: "higher"},
	{name: "virt.avg_latency_vms", unit: "vms", better: "lower"},
}
