package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"capuchin/internal/fleet"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
)

// fleetTestOpts mirrors goldenOpts: quick sweeps on a 4 GiB P100 slice.
func fleetTestOpts(jobs int) Options {
	return Options{Device: hw.P100().WithMemory(4 * hw.GiB), Quick: true, Iterations: 2, Jobs: jobs}
}

// TestExecProfilerAccuracy bounds the warmup-based predictor's error per
// model family on the real executor: the warmup peak is a lower bound on
// the steady peak (the pool high-water mark is monotone in iterations)
// and must land within a family-specific band of it — the property the
// admission controller's safety margin is sized against.
func TestExecProfilerAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles real simulations")
	}
	o := fleetTestOpts(4).fill()
	p := &ExecProfiler{Runner: o.Runner, Device: o.Device}
	cases := []struct {
		family  string
		load    fleet.Workload
		maxFrac float64 // max tolerated (steady-warmup)/steady shortfall
	}{
		{"cnn", fleet.Workload{Model: "resnet50", Batch: 32}, 0.35},
		{"cnn-depthwise", fleet.Workload{Model: "mobilenetv2", Batch: 64}, 0.35},
		{"rnn", fleet.Workload{Model: "lstm", Batch: 16}, 0.40},
	}
	for _, tc := range cases {
		prof, err := p.Profile(tc.load)
		if err != nil {
			t.Fatalf("%s: %v", tc.family, err)
		}
		if prof.WarmupPeak <= 0 || prof.SteadyPeak <= 0 || prof.IterTime <= 0 {
			t.Fatalf("%s: degenerate profile %+v", tc.family, prof)
		}
		if prof.WarmupPeak > prof.SteadyPeak {
			t.Errorf("%s: warmup peak %d exceeds steady peak %d (pool peak must be monotone)",
				tc.family, prof.WarmupPeak, prof.SteadyPeak)
		}
		err1 := float64(prof.SteadyPeak-prof.WarmupPeak) / float64(prof.SteadyPeak)
		if err1 > tc.maxFrac {
			t.Errorf("%s: predictor shortfall %.1f%% exceeds the %.0f%% family bound",
				tc.family, 100*err1, 100*tc.maxFrac)
		}
	}
}

// TestExecProfilerWarmupIsSteadyPrefix pins the equivalence the profiler
// rests on: a k-iteration run reports exactly the first k iterations of
// an n-iteration run (Session.Run is a plain loop), so the warmup peak
// read from the steady run's prefix equals a separate warmup run's.
func TestExecProfilerWarmupIsSteadyPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles real simulations")
	}
	o := fleetTestOpts(4).fill()
	p := &ExecProfiler{Runner: o.Runner, Device: o.Device}
	big := o.Device.WithMemory(256 * hw.GiB)
	for _, w := range fleetWorkloads(true) {
		prof, err := p.Profile(w)
		if err != nil {
			t.Fatalf("%v: %v", w, err)
		}
		warm := Run(RunConfig{Model: w.Model, Batch: w.Batch, System: SystemTF, Device: big, Iterations: fleet.DefaultWarmupIters})
		if !warm.OK || prof.WarmupPeak != warm.Steady.PeakBytes {
			t.Errorf("%v: WarmupPeak %d, want the %d-iteration run's peak %d (err %v)",
				w, prof.WarmupPeak, fleet.DefaultWarmupIters, warm.Steady.PeakBytes, warm.Err)
		}
	}
	// Capuchin runs at a batch TF-ori OOMs on, so its plan must act.
	const k, n = 2, 4
	for _, c := range []struct {
		sys   System
		batch int64
	}{{SystemTF, 16}, {SystemCapuchin, 32}} {
		cfg := RunConfig{Model: "resnet50", Batch: c.batch, System: c.sys, Device: smallDev(), Iterations: k}
		short := Run(cfg)
		cfg.Iterations = n
		long := Run(cfg)
		if !short.OK || !long.OK {
			t.Fatalf("%s: runs failed: %v / %v", c.sys, short.Err, long.Err)
		}
		if !reflect.DeepEqual(short.Stats, long.Stats[:k]) {
			t.Errorf("%s: the first %d stats of a %d-iteration run differ from a %d-iteration run's", c.sys, k, n, k)
		}
	}
}

// TestFleetScenariosCellCount: profiling simulates one TF-ori run plus
// the cap anchors it needs per menu workload — two cells when the 0.7
// anchor fits — and nothing else. A separate warmup run would add a cell
// per workload.
func TestFleetScenariosCellCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	o := fleetTestOpts(4)
	o.Runner = NewRunner(4)
	if _, err := FleetScenarios(o, FleetOptions{}); err != nil {
		t.Fatal(err)
	}
	p := &ExecProfiler{Runner: NewRunner(4), Device: o.Device}
	var want, fits int64
	for _, w := range fleetWorkloads(true) {
		prof, err := p.Profile(w)
		if err != nil {
			t.Fatalf("%v: %v", w, err)
		}
		want += 3 // TF-ori run and both anchors
		if prof.CapAnchorRatio == 0.7 {
			want--
			fits++
		}
	}
	if fits == 0 {
		t.Fatal("no quick-menu workload fits its 0.7 anchor; the count below checks nothing")
	}
	if got := o.Runner.Stats().Misses; got != want {
		t.Errorf("FleetScenarios simulated %d cells, want %d (%d workloads at two cells)", got, want, fits)
	}
}

// TestFleetScenariosErrorIsDeterministic: with two menu workloads
// failing to profile, FleetScenarios reports the earlier menu entry's
// error at any -jobs, even when the later one fails first.
func TestFleetScenariosErrorIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	menu := fleetWorkloads(true)
	first, second := menu[1], menu[2]
	for _, jobs := range []int{1, 4} {
		o := fleetTestOpts(jobs)
		o.Runner = NewRunner(jobs)
		o.Runner.runFn = func(cfg RunConfig, tr obs.Tracer, ts *Templates) Result {
			if cfg.System == SystemTF {
				switch cfg.Model {
				case first.Model:
					time.Sleep(20 * time.Millisecond) // let the later entry fail first
					return Result{Config: cfg, Err: fmt.Errorf("injected failure of %s", first.Model)}
				case second.Model:
					return Result{Config: cfg, Err: fmt.Errorf("injected failure of %s", second.Model)}
				}
			}
			res, _, _ := run(cfg, tr, ts)
			return res
		}
		_, err := FleetScenarios(o, FleetOptions{})
		if err == nil || !strings.Contains(err.Error(), first.String()) {
			t.Errorf("jobs %d: error %v, want the failure of %v", jobs, err, first)
		}
	}
}

// TestFleetScenariosAcceptance is the experiment-level acceptance: on the
// default seed, predictive admission has a strictly lower kill rate than
// admit-all at equal-or-better goodput, and the Capuchin-managed scenario
// completes at least as many jobs as the baseline.
func TestFleetScenariosAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	fc, err := FleetScenarios(fleetTestOpts(4), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fc.Runs) != 3 {
		t.Fatalf("got %d runs", len(fc.Runs))
	}
	base, pred, capu := fc.Runs[0], fc.Runs[1], fc.Runs[2]
	if pred.KillRatePct >= base.KillRatePct {
		t.Errorf("predictive kill rate %.2f%% not strictly below admit-all %.2f%%",
			pred.KillRatePct, base.KillRatePct)
	}
	if pred.GoodputPct < base.GoodputPct-5 {
		t.Errorf("predictive goodput %.2f%% materially below admit-all %.2f%%",
			pred.GoodputPct, base.GoodputPct)
	}
	if capu.Completed < base.Completed {
		t.Errorf("capuchin-managed completed %d < admit-all %d", capu.Completed, base.Completed)
	}
	for _, r := range fc.Runs {
		if got := r.Completed + r.Rejected; got != fc.Jobs {
			t.Errorf("%s/%s: %d terminal jobs, want %d", r.Mode, r.Manager, got, fc.Jobs)
		}
	}
}

// TestFleetByteIdenticalAcrossJobs pins the replayability contract: the
// rendered fleet table and the JSON artifact are byte-identical whether
// the profiling cells run serially or eight-wide.
func TestFleetByteIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	render := func(jobs int) (string, string) {
		fc, err := FleetScenarios(fleetTestOpts(jobs), FleetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var tbl, js bytes.Buffer
		if err := FleetTableFrom(fc).WriteText(&tbl); err != nil {
			t.Fatal(err)
		}
		if err := fc.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return tbl.String(), js.String()
	}
	t1, j1 := render(1)
	t8, j8 := render(8)
	if t1 != t8 {
		t.Errorf("table differs between -jobs 1 and -jobs 8:\n%s\n---\n%s", t1, t8)
	}
	if j1 != j8 {
		t.Errorf("JSON differs between -jobs 1 and -jobs 8")
	}
}

// TestGoldenFleetQuick pins the quick fleet table byte-for-byte.
func TestGoldenFleetQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick fleet takes a few seconds")
	}
	checkGolden(t, "fleet_quick", Fleet(goldenOpts()))
}
