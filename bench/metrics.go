package main

// metricDef is one metric of the catalogue. BENCHMARK.json and README.md
// list the same names, units and bounds; a test keeps the three in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share of the parent's value a change may lose
	// traced marks per-layer host-time metrics, read from the traced
	// passes; every other metric comes from the timed passes.
	traced bool
	// hostTime metrics are scaled to the nominal host speed (probe.go).
	hostTime bool
	// q1 metrics report the first quartile over passes instead of the
	// median: the passes other tenants' bursts slowed lie above it.
	q1 bool
}

// value is the number a metric reports from its distribution over passes.
func (d metricDef) value(s summary) float64 {
	if d.q1 {
		return s.Q1
	}
	return s.Median
}

// endToEnd are the metrics a user of the simulator sees, per workload.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, hostTime: true, q1: true},
	{Name: "allocs_per_run", Unit: "count", Better: "lower", Bound: 0.01},
	{Name: "alloc_mb_per_run", Unit: "MB", Better: "lower", Bound: 0.01},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, hostTime: true},
}

func cpuShare(layer string) metricDef {
	return metricDef{Name: layer + ".cpu_share", Unit: "ratio", Better: "lower", traced: true}
}

func nsPerEvent(layer string) metricDef {
	return metricDef{Name: layer + ".ns_per_event", Unit: "ns/event", Better: "lower", traced: true}
}

func counter(name, better string) metricDef {
	return metricDef{Name: name, Unit: "count", Better: better}
}

// perLayer are the metrics of single layers, named after the simulator's
// packages (see layerOfPackage).
var perLayer = []metricDef{
	cpuShare("sim"), nsPerEvent("sim"),
	counter("sim.events", "lower"),
	{Name: "sim.cohort_mean", Unit: "events/cohort", Better: "higher"},
	{Name: "sim.overflow_frac", Unit: "ratio", Better: "lower"},
	{Name: "sim.wait_pclk", Unit: "pclk", Better: "lower"},
	{Name: "sim.mpclk_per_s", Unit: "Mpclk/s", Better: "higher"},

	cpuShare("core"), nsPerEvent("core"),
	counter("core.msgs", "lower"),
	counter("core.misses", "lower"),
	{Name: "core.miss_lat_pclk", Unit: "pclk", Better: "lower"},
	counter("core.own_reqs", "lower"),
	counter("core.update_reqs", "lower"),
	{Name: "core.prefetch_useful_frac", Unit: "ratio", Better: "higher"},

	cpuShare(rtMalloc), cpuShare(rtGC), cpuShare(rtMap), cpuShare(rtOther),

	cpuShare("cache"), nsPerEvent("cache"),
	counter("cache.repl_misses", "lower"),
	counter("cache.wc_hits", "higher"),

	cpuShare("network"), nsPerEvent("network"),
	{Name: "network.mb", Unit: "MB", Better: "lower"},
	{Name: "network.update_mb", Unit: "MB", Better: "lower"},

	cpuShare("proc"), nsPerEvent("proc"),
	counter("proc.ops", "lower"),
	{Name: "proc.stall_frac", Unit: "ratio", Better: "lower"},

	cpuShare("workload"),
	{Name: "workload.gen_s", Unit: "s", Better: "lower", traced: true},
	{Name: "workload.gen_ns_per_op", Unit: "ns/op", Better: "lower", traced: true},

	cpuShare("machine"), cpuShare("fault"), cpuShare("stats"),

	cpuShare("telemetry"), cpuShare("check"), cpuShare("trace"),
	counter("telemetry.dropped_spans", "lower"),

	cpuShare("exp"),
	counter("exp.unique_runs", "lower"),
	counter("exp.dedup_hits", "higher"),
	{Name: "exp.queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "exp.simulate_s", Unit: "s", Better: "lower"},
	{Name: "exp.busy_frac", Unit: "ratio", Better: "higher"},
	expSpan("table1"), expSpan("fig2"), expSpan("table2"), expSpan("fig3"),
	expSpan("table3"), expSpan("fig4"), expSpan("sens_buffers"), expSpan("sens_cache"),
	expSpan("dir"), expSpan("assoc"), expSpan("scaling"), expSpan("cost"),

	cpuShare("store"),
	{Name: "store.write_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "store.read_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "store.validate_ms_mean", Unit: "ms", Better: "lower"},
	counter("store.hits", "higher"),
	counter("store.quarantined", "lower"),

	{Name: "bench.host_speed", Unit: "ratio", Better: "higher"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower", traced: true},
}

func expSpan(name string) metricDef {
	return metricDef{Name: "exp." + name + "_s", Unit: "s", Better: "lower", traced: true}
}
