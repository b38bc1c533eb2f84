package main

// metricDef describes one reported metric. The tables below are the
// benchmark's source of truth: BENCHMARK.json must list the same names,
// units, directions and bounds, which benchmark_test.go checks. What each
// metric means, and which end-to-end metric a layer metric should move,
// is in README.md.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening of the median that counts as a
	// regression (end-to-end metrics only).
	Bound float64
	// Kind classifies per-layer metrics: "host" metrics time or count a
	// layer's work on the host; "virtual" ones are simulated outputs,
	// identical on every run of a seed; "sanity" ones check the trace
	// itself.
	Kind string
}

// endToEnd metrics are measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer metrics come from the separate traced run (-trace 1). Every
// workload reports every one; a layer the workload does not exercise
// reads 0.
var perLayer = []metricDef{
	{Name: "models.build_ms", Unit: "ms", Better: "lower", Kind: "host"},
	{Name: "models.allocs_per_build", Unit: "count", Better: "lower", Kind: "host"},
	{Name: "models.share_pct", Unit: "%", Better: "lower", Kind: "host"},
	{Name: "exec.init_ms", Unit: "ms", Better: "lower", Kind: "host"},
	{Name: "exec.measured_ms", Unit: "ms", Better: "lower", Kind: "host"},
	{Name: "exec.allocs_measured", Unit: "count", Better: "lower", Kind: "host"},
	{Name: "core.plan_ms", Unit: "ms", Better: "lower", Kind: "host"},
	{Name: "exec.guided_ms", Unit: "ms", Better: "lower", Kind: "host"},
	{Name: "exec.ns_per_access", Unit: "ns", Better: "lower", Kind: "host"},
	{Name: "exec.allocs_guided", Unit: "count", Better: "lower", Kind: "host"},
	{Name: "core.access_ns", Unit: "ns", Better: "lower", Kind: "host"},
	{Name: "exec.share_pct", Unit: "%", Better: "lower", Kind: "host"},
	{Name: "core.share_pct", Unit: "%", Better: "lower", Kind: "host"},
	{Name: "bench.cells", Unit: "count", Better: "lower", Kind: "host"},
	{Name: "bench.hit_pct", Unit: "%", Better: "higher", Kind: "host"},
	{Name: "sim.stall_ms", Unit: "ms", Better: "lower", Kind: "virtual"},
	{Name: "sim.swap_gb", Unit: "GB", Better: "lower", Kind: "virtual"},
	{Name: "sim.recompute_ms", Unit: "ms", Better: "lower", Kind: "virtual"},
	{Name: "sim.prefetch_hit_pct", Unit: "%", Better: "higher", Kind: "virtual"},
	{Name: "memory.peak_gb", Unit: "GB", Better: "lower", Kind: "virtual"},
	{Name: "obs.trace_ms", Unit: "ms", Better: "lower", Kind: "host"},
	{Name: "obs.events_mb", Unit: "MB", Better: "lower", Kind: "host"},
	{Name: "obs.encode_ms", Unit: "ms", Better: "lower", Kind: "host"},
	{Name: "serve.submit_ms", Unit: "ms", Better: "lower", Kind: "host"},
	{Name: "serve.wait_ms", Unit: "ms", Better: "lower", Kind: "host"},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower", Kind: "host"},
	{Name: "serve.repeat_ms", Unit: "ms", Better: "lower", Kind: "host"},
	{Name: "serve.dedup_pct", Unit: "%", Better: "higher", Kind: "host"},
	{Name: "serve.shed_pct", Unit: "%", Better: "lower", Kind: "host"},
	{Name: "serve.mb_per_run", Unit: "MB", Better: "lower", Kind: "host"},
	{Name: "fleet.sim_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "fleet.us_per_admission", Unit: "us", Better: "lower", Kind: "host"},
	{Name: "fleet.profile_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "trace.coverage_pct", Unit: "%", Better: "higher", Kind: "sanity"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Kind: "sanity"},
	{Name: "bench.maxbatch_gain", Unit: "x", Better: "higher", Kind: "virtual"},
	{Name: "bench.paper_err_pct", Unit: "%", Better: "lower", Kind: "virtual"},
	{Name: "sim.samples_per_s", Unit: "1/s", Better: "higher", Kind: "virtual"},
	{Name: "fleet.goodput_pct", Unit: "%", Better: "higher", Kind: "virtual"},
	{Name: "fleet.jct_p99_s", Unit: "s", Better: "lower", Kind: "virtual"},
}

// hostTime reports whether d is a host time, which is scaled to
// reference-host time (see refCalibration).
func (d metricDef) hostTime() bool {
	if d.Kind == "virtual" || d.Kind == "sanity" {
		return false
	}
	switch d.Unit {
	case "ns", "us", "ms", "s":
		return true
	}
	return false
}

// metricByName finds a definition in either table.
func metricByName(name string) (metricDef, bool) {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tab {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
