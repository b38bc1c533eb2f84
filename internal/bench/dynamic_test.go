package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"capuchin/internal/fault"
	"capuchin/internal/hw"
	"capuchin/internal/models"
	"capuchin/internal/obs"
)

// TestDynamicConstantMatchesStatic is the differential satellite: a run
// routed through the dynamic engine with a constant schedule must be
// byte-identical to the static path — per-iteration stats AND the
// exported Chrome trace — because the engine adds no sessions, no
// decisions and no virtual time when shapes never change.
func TestDynamicConstantMatchesStatic(t *testing.T) {
	dev := hw.P100().WithMemory(2 * hw.GiB)
	static, sCol := traced(RunConfig{Model: "resnet50", Batch: 24, System: SystemCapuchin,
		Device: dev, Iterations: 4})
	if !static.OK {
		t.Fatalf("static run failed: %v", static.Err)
	}
	dyn, dCol := traced(RunConfig{Model: "resnet50", Batch: 24, System: SystemCapuchin,
		Device: dev, Iterations: 4,
		Schedule: models.ScheduleConstant, ScheduleSeed: 7})
	if !dyn.OK {
		t.Fatalf("constant-schedule dynamic run failed: %v", dyn.Err)
	}
	if dyn.Dynamic == nil {
		t.Fatal("dynamic run carries no DynamicReport")
	}
	if static.Dynamic != nil {
		t.Error("static run carries a DynamicReport")
	}
	if !reflect.DeepEqual(static.Stats, dyn.Stats) {
		t.Errorf("constant schedule changed iteration stats:\n static  %+v\n dynamic %+v",
			static.Stats, dyn.Stats)
	}
	var sTrace, dTrace bytes.Buffer
	if err := obs.WriteChromeTrace(&sTrace, sCol.Events()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChromeTrace(&dTrace, dCol.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sTrace.Bytes(), dTrace.Bytes()) {
		t.Errorf("Chrome traces differ: static %d bytes, dynamic %d bytes",
			sTrace.Len(), dTrace.Len())
	}
	if st := dyn.Dynamic.Stats; st.Signatures != 1 || st.Switches != 0 || st.Replans != 0 {
		t.Errorf("constant schedule produced dynamic events: %+v", st)
	}
}

// TestDynamicReplansUnderDrift asserts the acceptance criterion: a
// drifting schedule re-plans at least once, and the decision audit log
// records the measure/re-plan/switch transitions.
func TestDynamicReplansUnderDrift(t *testing.T) {
	res, col := traced(RunConfig{Model: "resnet50", Batch: 48, System: SystemCapuchin,
		Device: hw.P100().WithMemory(4 * hw.GiB), Iterations: 10,
		Schedule: models.ScheduleBatch, ScheduleSeed: 1})
	if !res.OK {
		t.Fatalf("drifting run failed: %v", res.Err)
	}
	st := res.Dynamic.Stats
	if st.Replans < 1 {
		t.Errorf("replans = %d, want >= 1 under a drifting schedule", st.Replans)
	}
	if st.Signatures < 2 {
		t.Errorf("signatures = %d, want >= 2", st.Signatures)
	}
	actions := map[string]int{}
	for _, d := range col.Decisions() {
		actions[d.Action]++
	}
	for _, want := range []string{"plan-measure", "re-plan", "shape-switch"} {
		if actions[want] == 0 {
			t.Errorf("no %q decision in the audit log (have %v)", want, actions)
		}
	}
	if actions["re-plan"] != st.Replans {
		t.Errorf("audit log has %d re-plan decisions, stats count %d",
			actions["re-plan"], st.Replans)
	}
	// Every bucket's peak stays within the device: the engine enforced
	// the cap for every signature, not just the anchor.
	for _, b := range res.Dynamic.Buckets {
		if b.PeakBytes > res.Config.Device.MemoryBytes {
			t.Errorf("bucket %s peak %d exceeds device memory", b.Sig, b.PeakBytes)
		}
	}
}

// TestDynamicDeterministicAcrossJobs renders the Dynamic table through
// runners at 1 and 8 jobs and requires byte-identical output; a repeat at
// 8 jobs pins run-to-run determinism too.
func TestDynamicDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic table takes a few seconds")
	}
	opts := func(jobs int) Options {
		return Options{Device: hw.P100().WithMemory(4 * hw.GiB), Quick: true,
			Iterations: 2, Jobs: jobs}
	}
	serial := renderTable(t, Dynamic(opts(1)))
	wide := renderTable(t, Dynamic(opts(8)))
	if serial != wide {
		t.Errorf("Dynamic table differs across job counts:\n--- jobs=1\n%s--- jobs=8\n%s", serial, wide)
	}
	if again := renderTable(t, Dynamic(opts(8))); again != wide {
		t.Error("Dynamic table not deterministic across repeat runs")
	}
	if serial == renderTable(t, func() *Table {
		o := opts(4)
		o.ScheduleSeed = 9
		return Dynamic(o)
	}()) {
		t.Error("different schedule seeds produced identical dynamic tables")
	}
}

// TestDynamicRejectsGraphKeyedSystems pins the error path: policies built
// against one graph cannot follow a moving shape schedule.
func TestDynamicRejectsGraphKeyedSystems(t *testing.T) {
	for _, sys := range []System{SystemVDNN, SystemSuperNeurons, SystemOpenAIMemory, SystemOpenAISpeed} {
		r := Run(RunConfig{Model: "resnet50", Batch: 8, System: sys, Device: smallDev(),
			Iterations: 2, Schedule: models.ScheduleBatch})
		if r.OK || r.Err == nil {
			t.Errorf("%s accepted a dynamic schedule", sys)
		}
	}
	// Unknown schedule kinds error before any simulation.
	if r := Run(RunConfig{Model: "resnet50", Batch: 8, System: SystemCapuchin,
		Device: smallDev(), Schedule: "zigzag"}); r.OK || r.Err == nil {
		t.Error("unknown schedule kind accepted")
	}
	// Sequence drift needs a sequence axis.
	if r := Run(RunConfig{Model: "resnet50", Batch: 8, System: SystemCapuchin,
		Device: smallDev(), Schedule: models.ScheduleSeq}); r.OK || r.Err == nil {
		t.Error("seq schedule accepted for a model without a sequence axis")
	}
}

// TestDynamicCacheKeyDefaults pins the runner-cache contract for the new
// fields: a static config ignores sampler knobs, and period 0 aliases the
// default period 2, so equivalent configs share one cache entry.
func TestDynamicCacheKeyDefaults(t *testing.T) {
	r := NewRunner(2)
	base := RunConfig{Model: "resnet50", Batch: 8, System: SystemTF, Device: smallDev(), Iterations: 2}
	withSeed := base
	withSeed.ScheduleSeed = 99 // meaningless without Schedule
	r.Run(base)
	r.Run(withSeed)
	if st := r.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("static sampler knobs split the cache: %+v", st)
	}
	dyn := base
	dyn.Schedule = models.ScheduleBatch
	dynDefault := dyn
	dynDefault.SchedulePeriod = 2
	r.Run(dyn)
	r.Run(dynDefault)
	if st := r.Stats(); st.Misses != 2 || st.Hits != 2 {
		t.Errorf("period 0 and 2 split the cache: %+v", st)
	}
}

// TestDynamicChaosSoak drives the dynamic experiment through the parallel
// engine at 8 jobs under seeded fault injection (run under -race via
// `make soak`). Every cell must complete or fail with a typed error —
// never panic — and identical configurations replayed on a fresh runner
// must reproduce identical statistics and dynamic reports.
func TestDynamicChaosSoak(t *testing.T) {
	dev := hw.P100().WithMemory(4 * hw.GiB)
	var cfgs []RunConfig
	for seed := uint64(1); seed <= 2; seed++ {
		for _, plan := range []fault.Plan{{}, fault.DefaultPlan(seed)} {
			for _, kind := range []string{models.ScheduleConstant, models.ScheduleBatch} {
				cfgs = append(cfgs, RunConfig{Model: "resnet50", Batch: 48,
					System: SystemCapuchin, Device: dev, Iterations: 6,
					Schedule: kind, ScheduleSeed: seed, Faults: plan})
			}
		}
	}
	runner := NewRunner(8)
	results := runner.RunAll(cfgs)
	for i, r := range results {
		if !r.OK && !isOOM(r.Err) && !isTransfer(r.Err) {
			t.Errorf("cfg %d (%s seed %d): untyped failure: %v",
				i, cfgs[i].Schedule, cfgs[i].ScheduleSeed, r.Err)
		}
		if r.Dynamic == nil {
			t.Errorf("cfg %d: no dynamic report", i)
		}
	}
	if st := runner.Stats(); st.Panics != 0 {
		t.Fatalf("dynamic soak recovered %d panics", st.Panics)
	}

	replay := NewRunner(8).RunAll(cfgs)
	for i, r := range replay {
		orig := results[i]
		if r.OK != orig.OK {
			t.Errorf("cfg %d: replay OK=%v, original OK=%v", i, r.OK, orig.OK)
			continue
		}
		if fmt.Sprintf("%+v", r.Stats) != fmt.Sprintf("%+v", orig.Stats) {
			t.Errorf("cfg %d: replay stats diverged", i)
		}
		if r.Dynamic != nil && orig.Dynamic != nil &&
			fmt.Sprintf("%+v", *r.Dynamic) != fmt.Sprintf("%+v", *orig.Dynamic) {
			t.Errorf("cfg %d: replay dynamic report diverged", i)
		}
	}
}
