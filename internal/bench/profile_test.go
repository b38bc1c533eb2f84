package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/fault"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
)

// profiledCfg is a small memory-pressured Capuchin cell: cheap enough for
// unit tests, tight enough that the profile has swap traffic to show.
func profiledCfg() RunConfig {
	return RunConfig{
		Model:  "alexnet",
		Batch:  256,
		System: SystemCapuchin,
		Device: hw.P100().WithMemory(2 * hw.GiB),
	}
}

// traced runs cfg like Run with a fresh Collector attached and returns
// the run's Result and its event log.
func traced(cfg RunConfig) (Result, *obs.Collector) {
	col := obs.NewCollector()
	return RunTraced(cfg, col), col
}

// TestProfileNeutrality pins the bench-level half of the zero-overhead
// contract: a traced run reports exactly the Result of an untraced one —
// virtual time, peaks and swap counters included.
func TestProfileNeutrality(t *testing.T) {
	base := Run(profiledCfg())
	if !base.OK {
		t.Fatalf("baseline run failed: %v", base.Err)
	}
	prof, col := traced(profiledCfg())
	if !prof.OK {
		t.Fatalf("traced run failed: %v", prof.Err)
	}
	if !reflect.DeepEqual(base, prof) {
		t.Errorf("tracing changed run outcomes:\n base   %+v\n traced %+v", base.Stats, prof.Stats)
	}
	if col.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}
}

// TestTracedLogContents checks what a traced run's log folds into:
// events, decisions, a memory profile whose peak matches the allocator's,
// and metrics histograms.
func TestTracedLogContents(t *testing.T) {
	res, col := traced(profiledCfg())
	if !res.OK {
		t.Fatalf("run failed: %v", res.Err)
	}
	if col.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}
	if len(col.Decisions()) == 0 {
		t.Error("capuchin run under pressure produced no audit decisions")
	}
	var peak int64
	for _, st := range res.Stats {
		if st.PeakBytes > peak {
			peak = st.PeakBytes
		}
	}
	if mem := obs.BuildMemProfile(col.Events()); mem.PeakBytes != peak {
		t.Errorf("profile peak %d != allocator peak %d", mem.PeakBytes, peak)
	}
	met := obs.BuildMetrics(col.Events(), col.Decisions())
	if h, ok := met.Hist("kernel"); !ok || h.Count == 0 {
		t.Error("kernel histogram missing from traced run")
	}
}

// TestPolicyAuditCoverage checks the audit log is not Capuchin-specific:
// the baseline systems' swap/recompute actions route through the Env, so
// a pressured run under any of them leaves a non-empty decision history.
func TestPolicyAuditCoverage(t *testing.T) {
	for _, sys := range []System{SystemVDNN, SystemOpenAIMemory, SystemSuperNeurons} {
		cfg := profiledCfg()
		cfg.System = sys
		res, col := traced(cfg)
		if res.Stats == nil {
			t.Fatalf("%s: the run did not simulate (%v)", sys, res.Err)
		}
		if len(col.Decisions()) == 0 {
			t.Errorf("%s produced no audit decisions under pressure", sys)
		}
	}
}

// TestRunnerMetricsAggregation checks the sweep-wide registry: profiled
// cells merge into Runner.Metrics() exactly once each, with cache hits not
// double-counting, and the aggregate of one cell is what its own log
// folds into.
func TestRunnerMetricsAggregation(t *testing.T) {
	r := NewRunner(2)
	r.EnableProfiling()
	cfg := profiledCfg()

	first := r.Run(cfg)
	if !first.OK {
		t.Fatalf("run failed: %v", first.Err)
	}
	_, col := traced(cfg)
	var got, want bytes.Buffer
	if err := r.Metrics().WriteText(&got); err != nil {
		t.Fatal(err)
	}
	if err := obs.BuildMetrics(col.Events(), col.Decisions()).WriteText(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("aggregate of one profiled cell differs from its log's metrics:\n%s\nwant:\n%s", &got, &want)
	}
	h, ok := r.Metrics().Hist("kernel")
	if !ok || h.Count == 0 {
		t.Fatal("aggregate has no kernel histogram after a profiled cell")
	}
	kernels := h.Count

	// A cache hit must not inflate the aggregate.
	if again := r.Run(cfg); !again.OK {
		t.Fatalf("cached run failed: %v", again.Err)
	}
	if h2, _ := r.Metrics().Hist("kernel"); h2.Count != kernels {
		t.Errorf("cache hit double-counted metrics: %d -> %d", kernels, h2.Count)
	}
	if st := r.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("unexpected cache stats: %+v", st)
	}

	// A second distinct cell extends the aggregate.
	cfg2 := cfg
	cfg2.Batch = 128
	if res := r.Run(cfg2); !res.OK {
		t.Fatalf("second cell failed: %v", res.Err)
	}
	if h3, _ := r.Metrics().Hist("kernel"); h3.Count <= kernels {
		t.Errorf("aggregate did not grow: %d -> %d", kernels, h3.Count)
	}
}

// TestMetricsMatchIterStats checks the folded registry against the
// executor's own counters for every registered system, fault-free, under
// the transfer-pin plan and under the default plan, on one and two
// devices. Each completed run's IterStats, summed over iterations and
// replicas, must equal the counters folded from its log; an on-demand
// swap-in counts when issued, so an abandoned one is in swap/ondemand but
// not in OnDemandInCount.
func TestMetricsMatchIterStats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 72 profiled ResNet-50 cells")
	}
	completed := 0
	for _, sys := range SystemNames() {
		for _, spec := range []string{"", transferPinPlan, "default"} {
			plan, err := fault.ParsePlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, devices := range []int{1, 2} {
				res, col := traced(RunConfig{
					Model: "resnet50", Batch: 64, System: System(sys),
					Device: hw.P100().WithMemory(3 * hw.GiB / 2), Iterations: 3,
					Faults: plan, Devices: devices,
				})
				if !res.OK {
					continue
				}
				completed++
				checkMetricsMatchStats(t, fmt.Sprintf("%s/%q/%ddev", sys, spec, devices), res, col)
			}
		}
	}
	if completed == 0 {
		t.Fatal("no cell completed")
	}
	t.Logf("%d cells completed", completed)
}

// checkMetricsMatchStats compares the registry folded from one completed
// run's log col with its IterStats summed over iterations and replicas.
func checkMetricsMatchStats(t *testing.T, name string, res Result, col *obs.Collector) {
	t.Helper()
	var sum exec.IterStats
	add := func(st exec.IterStats) {
		sum.SwapOutCount += st.SwapOutCount
		sum.PrefetchCount += st.PrefetchCount
		sum.PassiveEvicts += st.PassiveEvicts
		sum.SwapFallbacks += st.SwapFallbacks
		sum.TransferFaults += st.TransferFaults
		sum.AllocFaults += st.AllocFaults
		sum.KernelSpikes += st.KernelSpikes
		sum.HostFaults += st.HostFaults
		sum.OOMRecoveries += st.OOMRecoveries
		sum.RecomputeCount += st.RecomputeCount
		sum.RecomputeTime += st.RecomputeTime
		sum.StallTime += st.StallTime
		sum.Nodes += st.Nodes
		sum.OnDemandInCount += st.OnDemandInCount
	}
	if res.Cluster != nil {
		for _, it := range res.Cluster.Iters {
			for _, st := range it.Replicas {
				add(st)
			}
		}
	} else {
		for _, st := range res.Stats {
			add(st)
		}
	}
	m := obs.BuildMetrics(col.Events(), col.Decisions())
	for _, c := range []struct {
		counter string
		want    int
	}{
		{"swap/out", sum.SwapOutCount},
		{"swap/prefetch", sum.PrefetchCount},
		{"evict/passive", sum.PassiveEvicts},
		{"fallback/recompute", sum.SwapFallbacks},
		{"faults/transfer", sum.TransferFaults},
		{"faults/alloc", sum.AllocFaults},
		{"faults/kernel-spike", sum.KernelSpikes},
		{"faults/host", sum.HostFaults},
		{"oom/recoveries", sum.OOMRecoveries},
	} {
		if got := m.Counter(c.counter); got != int64(c.want) {
			t.Errorf("%s: %s = %d, IterStats say %d", name, c.counter, got, c.want)
		}
	}
	rc, _ := m.Hist("recompute")
	if rc.Count != int64(sum.RecomputeCount) || rc.Sum != sum.RecomputeTime {
		t.Errorf("%s: recompute histogram count %d sum %v, IterStats say %d and %v",
			name, rc.Count, rc.Sum, sum.RecomputeCount, sum.RecomputeTime)
	}
	// The log names the stall reasons; the registry holds their sums.
	reasons := map[string]bool{}
	for _, ev := range col.Events() {
		if ev.Kind == obs.KindSpan && ev.Cat == "stall" {
			reasons[ev.Detail] = true
		}
	}
	var stall sim.Time
	for reason := range reasons {
		h, _ := m.Hist("stall/" + reason)
		stall += h.Sum
	}
	if stall != sum.StallTime {
		t.Errorf("%s: stall histograms sum to %v, StallTime is %v", name, stall, sum.StallTime)
	}
	if k, _ := m.Hist("kernel"); k.Count != int64(sum.Nodes) {
		t.Errorf("%s: kernel count %d, Nodes %d", name, k.Count, sum.Nodes)
	}
	if od := m.Counter("swap/ondemand"); od < int64(sum.OnDemandInCount) {
		t.Errorf("%s: swap/ondemand %d below OnDemandInCount %d", name, od, sum.OnDemandInCount)
	}
}

// TestProfilingRunnerSharedByGenerators runs quick Fig2 and Table2
// concurrently on one profiling Runner, as capuchin-bench -profile runs
// its generators, and serially on another: no generator may write the
// shared Runner (make race runs this under the race detector), and the
// aggregates must be non-empty and identical.
func TestProfilingRunnerSharedByGenerators(t *testing.T) {
	aggregate := func(concurrent bool) []byte {
		r := NewRunner(2)
		r.EnableProfiling()
		o := Options{Device: hw.P100().WithMemory(4 * hw.GiB), Quick: true, Iterations: 2, Runner: r}
		gens := []func(Options) *Table{Fig2, Table2}
		var wg sync.WaitGroup
		for _, gen := range gens {
			if !concurrent {
				gen(o)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				gen(o)
			}()
		}
		wg.Wait()
		var b bytes.Buffer
		if err := r.Metrics().WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	serial, concurrent := aggregate(false), aggregate(true)
	if len(serial) == 0 {
		t.Fatal("the profiling runner aggregated nothing")
	}
	if !bytes.Equal(serial, concurrent) {
		t.Errorf("concurrent generators aggregated\n%s\nserial ones\n%s", concurrent, serial)
	}
}
