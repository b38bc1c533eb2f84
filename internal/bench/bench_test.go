package bench

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"capuchin/internal/core"
	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/memory"
	"capuchin/internal/models"
	"capuchin/internal/testutil"
)

// smallDev keeps harness tests fast: a scaled-down P100.
func smallDev() hw.DeviceSpec {
	return hw.P100().WithMemory(2 * hw.GiB)
}

func TestRunSystems(t *testing.T) {
	for _, sys := range []System{
		SystemTF, SystemVDNN, SystemSuperNeurons, SystemOpenAIMemory, SystemOpenAISpeed,
		SystemCapuchin, SystemCapuchinSwap, SystemCapuchinSwapNoFA,
		SystemCapuchinRecompute, SystemCapuchinRecompNoCR, SystemDTR, SystemChunk,
	} {
		r := Run(RunConfig{Model: "resnet50", Batch: 8, System: sys, Device: smallDev(), Iterations: 2})
		if !r.OK {
			t.Errorf("%s failed at batch 8: %v", sys, r.Err)
			continue
		}
		if r.Throughput <= 0 {
			t.Errorf("%s: zero throughput", sys)
		}
	}
}

// TestRunErrors pins RunConfig.Validate rule by rule. A rejected row
// fails Validate with the rule's message, Run returns that same error
// without simulating, and the row's canonical form is rejected too. An
// accepted boundary row passes Validate in both forms, and Run fails it,
// if at all, only by running out of device memory: Validate rejects
// everything a run would reject before it simulates.
func TestRunErrors(t *testing.T) {
	base := RunConfig{Model: "alexnet", Batch: 1, System: SystemTF, Device: smallDev(), Iterations: 1}
	type row struct {
		name string
		edit func(*RunConfig)
		want string // a substring of Validate's error; "" means valid
	}
	rows := []row{
		{"unknown model", func(c *RunConfig) { c.Model = "nope" }, "unknown model"},
		{"no model", func(c *RunConfig) { c.Model = "" }, "unknown model"},
		{"unknown system", func(c *RunConfig) { c.System = "warp-drive" }, "unknown system"},
		{"zero batch", func(c *RunConfig) { c.Batch = 0 }, "batch must be >= 1"},
		{"batch above ceiling", func(c *RunConfig) { c.Batch = MaxBatchCeiling + 1 }, "<= 4096"},
		{"negative iterations", func(c *RunConfig) { c.Iterations = -1 }, "iterations must be >= 0"},
		{"iterations above cap", func(c *RunConfig) { c.Iterations = MaxIterations + 1 }, "<= 10000"},
		{"negative devices", func(c *RunConfig) { c.Devices = -2 }, "devices must be >= 0"},
		{"devices above cap", func(c *RunConfig) { c.Devices = MaxDevices + 1 }, "<= 64"},
		{"negative period, static", func(c *RunConfig) { c.SchedulePeriod = -1 }, "schedule period"},
		{"negative period, dynamic", func(c *RunConfig) { c.Schedule, c.SchedulePeriod = models.ScheduleBatch, -1 }, "schedule period"},
		{"no device memory", func(c *RunConfig) { c.Device = c.Device.WithMemory(0) }, "device memory"},
		{"device memory below a pool", func(c *RunConfig) { c.Device = c.Device.WithMemory(memory.MinCapacity - 1) }, "256 bytes"},
		{"device memory above cap", func(c *RunConfig) { c.Device = c.Device.WithMemory(hw.MaxMemory + 1) }, "4096 GiB"},
		{"negative host memory", func(c *RunConfig) { c.HostMemory = -1 }, "host memory"},
		{"host memory above cap", func(c *RunConfig) { c.HostMemory = hw.MaxMemory + 1 }, "4096 GiB"},
		{"unknown allocator", func(c *RunConfig) { c.Allocator = "bogus" }, "unknown allocator"},
		{"allocator in upper case", func(c *RunConfig) { c.Allocator = "BFC" }, "unknown allocator"},
		{"unknown schedule", func(c *RunConfig) { c.Schedule = "zigzag" }, "unknown schedule kind"},
		{"seq schedule without a sequence axis", func(c *RunConfig) { c.Schedule = models.ScheduleSeq }, "sequence axis"},
		{"schedule on a graph-keyed system", func(c *RunConfig) { c.System, c.Schedule = SystemVDNN, models.ScheduleBatch }, "one graph"},
		{"schedule across devices", func(c *RunConfig) { c.Schedule, c.Devices = models.ScheduleBatch, 2 }, ErrDynamicCluster.Error()},

		{"minimal", func(*RunConfig) {}, ""},
		{"default iterations", func(c *RunConfig) { c.Iterations = 0 }, ""},
		{"batch at ceiling", func(c *RunConfig) { c.Batch = MaxBatchCeiling }, ""},
		{"eager mode", func(c *RunConfig) { c.Mode = exec.EagerMode }, ""},
		{"smallest pool", func(c *RunConfig) { c.Device = c.Device.WithMemory(memory.MinCapacity) }, ""},
		{"device memory at cap", func(c *RunConfig) { c.Device = c.Device.WithMemory(hw.MaxMemory) }, ""},
		{"host memory at cap", func(c *RunConfig) { c.HostMemory = hw.MaxMemory }, ""},
		{"one device", func(c *RunConfig) { c.Devices = 1 }, ""},
		{"two devices", func(c *RunConfig) { c.Devices = 2 }, ""},
		{"devices at cap", func(c *RunConfig) { c.Devices = MaxDevices }, ""},
		{"seq schedule", func(c *RunConfig) { c.Model, c.Schedule = "lstm", models.ScheduleSeq }, ""},
		{"mixed schedule", func(c *RunConfig) { c.Model, c.Schedule = "lstm", models.ScheduleMixed }, ""},
	}
	for _, alloc := range []string{"", "bfc", "firstfit"} {
		rows = append(rows, row{"allocator " + alloc, func(c *RunConfig) { c.Allocator = alloc }, ""})
	}
	for _, sys := range SystemNames() {
		if spec, _ := exec.LookupPolicy(sys); spec.GraphAgnostic {
			for _, kind := range []string{models.ScheduleConstant, models.ScheduleBatch} {
				rows = append(rows, row{sys + " on a " + kind + " schedule", func(c *RunConfig) {
					c.System, c.Schedule, c.SchedulePeriod = System(sys), kind, 1
				}, ""})
			}
		}
	}
	runner := NewRunner(1)
	for _, tc := range rows {
		cfg := base
		tc.edit(&cfg)
		err := cfg.Validate()
		if canonErr := CanonicalConfig(cfg).Validate(); (canonErr == nil) != (err == nil) {
			t.Errorf("%s: Validate says %v, but of the canonical config %v", tc.name, err, canonErr)
		}
		if tc.want != "" {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: Validate = %v, want an error naming %q", tc.name, err, tc.want)
				continue
			}
			if r := Run(cfg); r.OK || r.Err == nil || r.Err.Error() != err.Error() || r.Stats != nil {
				t.Errorf("%s: Run = OK %v, err %v, %d iterations; want Validate's error %q before simulating",
					tc.name, r.OK, r.Err, len(r.Stats), err)
			}
			if r := runner.Run(cfg); r.Err == nil || r.Err.Error() != err.Error() {
				t.Errorf("%s: a Runner, which simulates the canonical config, returned %v, want %q", tc.name, r.Err, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: Validate rejected a valid config: %v", tc.name, err)
			continue
		}
		if r := Run(cfg); !r.OK && !errors.Is(r.Err, exec.ErrIterationOOM) && !errors.Is(r.Err, memory.ErrOOM) {
			t.Errorf("%s: Validate accepted the config, but Run failed with %v", tc.name, r.Err)
		}
	}
}

// referenceGraph builds model's graph at batch for exec.Reference.
func referenceGraph(t *testing.T, model string, batch int64) *graph.Graph {
	t.Helper()
	spec, err := models.Get(model)
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.BuildShaped(batch, 0, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFingerprintsAgreeAcrossSystems(t *testing.T) {
	// The central oracle at harness level: every system computes the
	// training step exec.Reference computes.
	for _, sys := range []System{SystemVDNN, SystemSuperNeurons, SystemOpenAIMemory, SystemOpenAISpeed, SystemCapuchin, SystemDTR, SystemChunk} {
		r := Run(RunConfig{Model: "resnet50", Batch: 8, System: sys, Device: smallDev(), Iterations: 2})
		if !r.OK {
			t.Errorf("%s: %v", sys, r.Err)
			continue
		}
		testutil.MatchesReference(t, string(sys), referenceGraph(t, "resnet50", 8), r.Stats)
	}
}

func TestMaxBatchMonotonicOrdering(t *testing.T) {
	dev := hw.P100().WithMemory(4 * hw.GiB)
	tf := MaxBatch(RunConfig{Model: "resnet50", System: SystemTF, Device: dev})
	cp := MaxBatch(RunConfig{Model: "resnet50", System: SystemCapuchin, Device: dev})
	if tf <= 0 {
		t.Fatalf("TF max batch = %d", tf)
	}
	if cp <= tf {
		t.Errorf("Capuchin max (%d) should exceed TF max (%d)", cp, tf)
	}
	// More memory, larger max batch.
	tf8 := MaxBatch(RunConfig{Model: "resnet50", System: SystemTF, Device: hw.P100().WithMemory(8 * hw.GiB)})
	if tf8 <= tf {
		t.Errorf("max batch did not grow with memory: %d at 4 GiB vs %d at 8 GiB", tf, tf8)
	}
}

func TestMaxBatchZeroWhenNothingFits(t *testing.T) {
	dev := hw.P100().WithMemory(150 * hw.MiB) // params fit, batch 1 does not
	if got := MaxBatch(RunConfig{Model: "resnet50", System: SystemTF, Device: dev}); got != 0 {
		t.Errorf("MaxBatch = %d, want 0", got)
	}
}

// TestMaxBatchSearchProbeOrder pins the search's exact probe sequence
// with synthetic predicates shaped like Capuchin's real non-monotone fit
// on a 16 GiB P100. A search that reordered or skipped probes (say, one
// bracketed by a predicted footprint) would change these answers.
func TestMaxBatchSearchProbeOrder(t *testing.T) {
	for _, c := range []struct {
		name   string
		fits   func(int64) bool
		probes []int64
		want   int64
	}{
		// vgg16/capuchin: fits at 311 and 369 but not at 320, where the
		// bisection lands, so the answer is 319.
		{"lands-in-hole", func(b int64) bool { return b <= 319 || (b >= 330 && b <= 369) },
			[]int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 384, 320, 288, 304, 312, 316, 318, 319}, 319},
		// resnet50/capuchin: fails at 1085 but fits at 1119; the bisection
		// never probes the hole, so the answer is 1119.
		{"skips-hole", func(b int64) bool { return b <= 1119 && (b < 1085 || b > 1087) },
			[]int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 1536, 1280, 1152, 1088, 1120, 1104, 1112, 1116, 1118, 1119}, 1119},
		{"nothing-fits", func(int64) bool { return false }, []int64{1}, 0},
		{"ceiling", func(int64) bool { return true },
			[]int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}, 4096},
	} {
		var probes []int64
		got := maxBatchSearch(func(b int64) bool {
			probes = append(probes, b)
			return c.fits(b)
		})
		if got != c.want || !reflect.DeepEqual(probes, c.probes) {
			t.Errorf("%s: answer %d after probes %v, want %d after %v", c.name, got, probes, c.want, c.probes)
		}
	}
}

// TestSearchTemplateProbesMatchBuild: a probe whose graph comes from its
// search's template yields the Result a fresh build does, and a search
// for an unknown model still answers 0.
func TestSearchTemplateProbesMatchBuild(t *testing.T) {
	ts := NewTemplates()
	for _, b := range []int64{8, 24} {
		cfg := RunConfig{Model: "resnet50", Batch: b, System: SystemCapuchin, Device: smallDev(), Iterations: 2}
		got, _, _ := run(cfg, nil, ts)
		if want := Run(cfg); !got.OK || !reflect.DeepEqual(got, want) {
			t.Errorf("batch %d: templated probe %+v, want %+v", b, got, want)
		}
	}
	if got := MaxBatch(RunConfig{Model: "nope", System: SystemTF, Device: smallDev()}); got != 0 {
		t.Errorf("MaxBatch of an unknown model = %d, want 0", got)
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	tbl.AddNote("n=%d", 7)
	var text, md strings.Builder
	if err := tbl.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := tbl.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "## T") || !strings.Contains(text.String(), "note: n=7") {
		t.Errorf("text output:\n%s", text.String())
	}
	if !strings.Contains(md.String(), "| a | bb |") || !strings.Contains(md.String(), "| --- | --- |") {
		t.Errorf("markdown output:\n%s", md.String())
	}
}

func TestQuickExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests take a few seconds")
	}
	o := Options{Device: hw.P100().WithMemory(4 * hw.GiB), Quick: true, Iterations: 2}
	checks := []struct {
		name string
		tbl  *Table
	}{
		{"fig2", Fig2(o)},
		{"fig3", Fig3(o)},
		{"table3", Table3(o)},
		{"overhead", Overhead(o)},
	}
	for _, c := range checks {
		if len(c.tbl.Rows) == 0 {
			t.Errorf("%s produced no rows (notes: %v)", c.name, c.tbl.Notes)
		}
	}
	t2 := Table2(o)
	if len(t2.Rows) != 2 {
		t.Errorf("quick Table2 rows = %d, want 2", len(t2.Rows))
	}
	f9 := Fig9(o)
	if len(f9) != 1 || len(f9[0].Rows) == 0 {
		t.Errorf("quick Fig9 shape wrong: %d tables", len(f9))
	}
}

func TestBatchLadder(t *testing.T) {
	l := batchLadder(100, 1000, false)
	if len(l) < 4 {
		t.Fatalf("ladder too short: %v", l)
	}
	for i := 1; i < len(l); i++ {
		if l[i] <= l[i-1] {
			t.Fatalf("ladder not increasing: %v", l)
		}
	}
	if l[0] != 70 || l[1] != 100 {
		t.Errorf("ladder start = %v, want 70, 100, ...", l[:2])
	}
	if last := l[len(l)-1]; last > 1000 {
		t.Errorf("ladder exceeds capuchin max: %d", last)
	}
	// Degenerate input.
	l0 := batchLadder(0, 0, true)
	if len(l0) == 0 {
		t.Error("empty ladder for degenerate input")
	}
}

func TestForceCoupledSwapSlower(t *testing.T) {
	dev := hw.P100().WithMemory(3 * hw.GiB)
	dec := Run(RunConfig{Model: "resnet50", Batch: 40, System: SystemCapuchinSwap, Device: dev, Iterations: 3})
	cou := Run(RunConfig{Model: "resnet50", Batch: 40, System: SystemCapuchinSwap, Device: dev, Iterations: 3, ForceCoupledSwap: true})
	if !dec.OK || !cou.OK {
		t.Fatalf("runs failed: %v / %v", dec.Err, cou.Err)
	}
	if cou.Steady.Duration < dec.Steady.Duration {
		t.Errorf("coupled (%v) beat decoupled (%v)", cou.Steady.Duration, dec.Steady.Duration)
	}
}

func TestEagerModeRuns(t *testing.T) {
	r := Run(RunConfig{Model: "densenet", Batch: 8, System: SystemCapuchin,
		Device: smallDev(), Mode: exec.EagerMode, Iterations: 2})
	if !r.OK {
		t.Fatalf("eager capuchin failed: %v", r.Err)
	}
}

// TestNegativeIterationsFail: a negative iteration count is a failed
// Result with an error on the static, dynamic and cluster paths alike,
// never a panic inside the session.
func TestNegativeIterationsFail(t *testing.T) {
	base := RunConfig{Model: "alexnet", Batch: 8, System: SystemTF, Device: smallDev(), Iterations: -1}
	dynamic, cluster := base, base
	dynamic.Schedule = models.ScheduleBatch
	cluster.Devices = 2
	for name, cfg := range map[string]RunConfig{"static": base, "dynamic": dynamic, "cluster": cluster} {
		r := Run(cfg)
		if r.OK || r.Err == nil || !strings.Contains(r.Err.Error(), "iterations") {
			t.Errorf("%s: ok=%v err=%v, want a failed result naming iterations", name, r.OK, r.Err)
		}
	}
}

func TestExtensionWorkloadsUnderCapuchin(t *testing.T) {
	// The zoo extensions (unrolled LSTM, MobileNetV2) run under memory
	// pressure with Capuchin and compute what exec.Reference computes.
	for _, m := range []string{"lstm", "mobilenetv2"} {
		uncapped := Run(RunConfig{Model: m, Batch: 16, System: SystemTF,
			Device: hw.P100().WithMemory(64 * hw.GiB), Iterations: 2})
		if !uncapped.OK {
			t.Fatalf("%s uncapped: %v", m, uncapped.Err)
		}
		// The pool's high-water mark is the largest per-iteration peak.
		var peak int64
		for _, st := range uncapped.Stats {
			peak = max(peak, st.PeakBytes)
		}
		capMem := peak * 3 / 5
		if capMem < 512*hw.MiB {
			capMem = 512 * hw.MiB
		}
		r := Run(RunConfig{Model: m, Batch: 16, System: SystemCapuchin,
			Device: hw.P100().WithMemory(capMem), Iterations: 3})
		if !r.OK {
			t.Fatalf("%s capuchin: %v", m, r.Err)
		}
		testutil.MatchesReference(t, m, referenceGraph(t, m, 16), r.Stats)
	}
}

// TestCapuchinPolicyAccessor: RunLive hands out the run's live session
// and policy — the Capuchin instance whose plan matches the Result's
// summary for a capuchin run, some other policy for TF-ori — and its
// Result equals Run's.
func TestCapuchinPolicyAccessor(t *testing.T) {
	cfg := RunConfig{Model: "resnet50", Batch: 8, System: SystemCapuchin,
		Device: smallDev(), Iterations: 2}
	r, s, pol := RunLive(cfg)
	if !r.OK {
		t.Fatal(r.Err)
	}
	if s == nil {
		t.Error("RunLive returned no session")
	}
	c, ok := pol.(*core.Capuchin)
	if !ok {
		t.Fatalf("RunLive policy is %T for a capuchin run", pol)
	}
	if c.Summary() != r.Plan {
		t.Errorf("live plan %+v differs from the Result's %+v", c.Summary(), r.Plan)
	}
	if plain := Run(cfg); !reflect.DeepEqual(plain, r) {
		t.Errorf("Run and RunLive results differ:\nRun:     %+v\nRunLive: %+v", plain, r)
	}
	_, _, pol2 := RunLive(RunConfig{Model: "resnet50", Batch: 8, System: SystemTF,
		Device: smallDev(), Iterations: 1})
	if _, ok := pol2.(*core.Capuchin); ok {
		t.Error("RunLive returned a Capuchin policy for a TF run")
	}
}

func TestCapacitySweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity sweep takes a few seconds")
	}
	tbl := CapacitySweep(Options{Device: hw.P100(), Quick: true, Iterations: 2})
	if len(tbl.Rows) != 2 {
		t.Fatalf("quick sweep rows = %d, want 2", len(tbl.Rows))
	}
}
