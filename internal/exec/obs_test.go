package exec

import (
	"testing"

	"capuchin/internal/fault"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
)

// runTraced executes n iterations of the test CNN with a Collector
// attached, and folds its log into a metrics registry.
func runTraced(t *testing.T, mem int64, plan fault.Plan, n int) ([]IterStats, *obs.Collector, *obs.Metrics, error) {
	t.Helper()
	g := testCNN(t, graph.GraphModeOptions())
	col := obs.NewCollector()
	s, err := NewSession(g, Config{Device: device(mem), Policy: lruPolicy{}, Faults: plan, Tracer: col})
	if err != nil {
		t.Fatal(err)
	}
	sts, runErr := s.Run(n)
	return sts, col, obs.BuildMetrics(col.Events(), col.Decisions()), runErr
}

// TestTracingNeutrality is the zero-overhead-when-nil contract's other
// half: attaching a tracer must not change any virtual-time outcome. The
// traced run's IterStats must equal the untraced run's, fault-free and
// under heavy injection.
func TestTracingNeutrality(t *testing.T) {
	plans := []fault.Plan{
		{},
		{Seed: 1, TransferFailRate: 1, MaxTransferRetries: 2},
		{Seed: 5, AllocFailRate: 0.7},
	}
	for _, plan := range plans {
		base, baseErr := runFaulted(t, 128*hw.MiB, plan, 2)
		traced, _, _, tracedErr := runTraced(t, 128*hw.MiB, plan, 2)
		if (baseErr == nil) != (tracedErr == nil) {
			t.Fatalf("plan %+v: errors diverged: %v vs %v", plan, baseErr, tracedErr)
		}
		if len(base) != len(traced) {
			t.Fatalf("plan %+v: iteration counts diverged", plan)
		}
		for i := range base {
			if base[i] != traced[i] {
				t.Errorf("plan %+v iter %d: tracing changed the outcome:\n untraced %+v\n traced   %+v",
					plan, i, base[i], traced[i])
			}
		}
	}
}

// TestTraceEventCoverage checks that a traced run under memory pressure
// records the timeline the exporters need: kernel spans matching executed
// nodes, transfer spans for the swap traffic, memory events for every
// allocation, and populated metrics.
func TestTraceEventCoverage(t *testing.T) {
	sts, col, met, err := runTraced(t, 128*hw.MiB, fault.Plan{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var nodes int
	for _, st := range sts {
		nodes += st.Nodes
	}
	var kernels, transfers, allocs, frees, stalls int
	for _, ev := range col.Events() {
		switch ev.Cat {
		case "kernel":
			kernels++
			if ev.Lane != "compute" || ev.End < ev.Start {
				t.Fatalf("malformed kernel span: %+v", ev)
			}
		case "transfer":
			transfers++
			if ev.Queued > ev.Start {
				t.Fatalf("transfer starts before it was queued: %+v", ev)
			}
		case "alloc":
			allocs++
			if ev.Used <= 0 {
				t.Fatalf("alloc event without allocator sample: %+v", ev)
			}
		case "free":
			frees++
		case "stall":
			stalls++
		}
	}
	if kernels != nodes {
		t.Errorf("kernel spans %d != executed nodes %d", kernels, nodes)
	}
	if transfers == 0 || allocs == 0 || frees == 0 {
		t.Errorf("missing coverage: transfers=%d allocs=%d frees=%d", transfers, allocs, frees)
	}
	if h, ok := met.Hist("kernel"); !ok || h.Count != int64(nodes) {
		t.Errorf("kernel histogram count %d, want %d", h.Count, nodes)
	}
	if stalls > 0 {
		if _, ok := met.Hist("stall/passive-evict"); !ok {
			if _, ok2 := met.Hist("stall/input-wait"); !ok2 {
				t.Error("stall spans recorded but no stall histogram observed")
			}
		}
	}

	// The event stream must reconstruct into a profile whose peak matches
	// the allocator's own high-water mark.
	prof := obs.BuildMemProfile(col.Events())
	peak := sts[0].PeakBytes
	if sts[1].PeakBytes > peak {
		peak = sts[1].PeakBytes
	}
	if prof.PeakBytes != peak {
		t.Errorf("profile peak %d != allocator peak %d", prof.PeakBytes, peak)
	}
	if len(prof.PeakResidents) == 0 {
		t.Error("peak attribution is empty under memory pressure")
	}
}

// TestSwapFallbackAudit links PR 2's graceful-degradation counters to the
// audit log: under a seeded fault plan, every SwapFallbacks increment must
// have a matching "fallback-recompute" decision explaining it.
func TestSwapFallbackAudit(t *testing.T) {
	plans := []fault.Plan{
		{Seed: 1, TransferFailRate: 1, MaxTransferRetries: 2},
		{Seed: 3, HostFailRate: 1},
	}
	for _, plan := range plans {
		sts, col, _, err := runTraced(t, 128*hw.MiB, plan, 2)
		if err != nil {
			t.Fatalf("plan %+v: %v", plan, err)
		}
		var fallbacks int
		for _, st := range sts {
			fallbacks += st.SwapFallbacks
		}
		if fallbacks == 0 {
			t.Fatalf("plan %+v: expected swap fallbacks under injection", plan)
		}
		var audited int
		for _, d := range col.Decisions() {
			if d.Action == "fallback-recompute" {
				audited++
				if d.Tensor == "" || d.Reason == "" {
					t.Errorf("fallback decision missing subject or reason: %+v", d)
				}
			}
		}
		if audited != fallbacks {
			t.Errorf("plan %+v: %d SwapFallbacks but %d fallback-recompute audit records",
				plan, fallbacks, audited)
		}
	}
}
