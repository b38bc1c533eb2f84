package exec_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"capuchin/internal/bench"
	"capuchin/internal/core"
	"capuchin/internal/exec"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/serve"
)

// discard is a tracer that drops every record. Attaching it makes a run
// simulate every iteration and changes nothing else, so a run with it is
// the reference an iteration-skipping run must equal.
type discard struct{}

func (discard) Emit(obs.Event)      {}
func (discard) Decide(obs.Decision) {}

// sweepCells returns every cell a runner simulates while do runs.
func sweepCells(jobs int, do func(*bench.Runner)) []bench.RunConfig {
	r := bench.NewRunner(jobs)
	var mu sync.Mutex
	var cells []bench.RunConfig
	r.Observe(func(c bench.RunConfig) obs.Tracer {
		mu.Lock()
		cells = append(cells, c)
		mu.Unlock()
		return nil
	})
	do(r)
	return cells
}

// resultDiff names the first field in which a skipping run's result
// differs from the reference, or returns "".
func resultDiff(got, want bench.Result) string {
	switch {
	case got.OK != want.OK:
		return fmt.Sprintf("OK %v, want %v", got.OK, want.OK)
	case fmt.Sprint(got.Err) != fmt.Sprint(want.Err):
		return fmt.Sprintf("Err %v, want %v", got.Err, want.Err)
	case !reflect.DeepEqual(got.Stats, want.Stats):
		for i := range want.Stats {
			if i >= len(got.Stats) || got.Stats[i] != want.Stats[i] {
				return fmt.Sprintf("Stats[%d] differ (%d iterations, want %d)", i, len(got.Stats), len(want.Stats))
			}
		}
		return fmt.Sprintf("%d iterations, want %d", len(got.Stats), len(want.Stats))
	case got.Steady != want.Steady:
		return "Steady differs"
	case got.Throughput != want.Throughput:
		return fmt.Sprintf("Throughput %v, want %v", got.Throughput, want.Throughput)
	case !reflect.DeepEqual(got.Plan, want.Plan):
		return "Plan differs"
	}
	return ""
}

// simulates returns the fewest and the most iterations an untraced run
// of cfg that completes n, with plan, may simulate. Only a graph-mode
// run that nothing observes may skip. The static policies' boundaries
// then all repeat, so they simulate one iteration. So does a Capuchin
// run whose plan swaps and recomputes nothing: its measured iteration
// leaves the state it started from. Any other Capuchin run repeats once
// its guided schedule settles, which is never before the second
// boundary: the first holds the measured iteration still pending, and
// the plan it builds acts.
func simulates(cfg bench.RunConfig, plan core.PlanSummary, n int64) (lo, hi int64) {
	if cfg.Mode != exec.GraphMode || cfg.Schedule != "" || cfg.Devices > 1 || cfg.Faults.Enabled() {
		return n, n
	}
	switch cfg.System {
	case bench.SystemTF, bench.SystemVDNN, "vdnn-all", bench.SystemOpenAIMemory, bench.SystemOpenAISpeed:
		return min(n, 1), min(n, 1)
	case bench.SystemCapuchin, bench.SystemCapuchinSwap, bench.SystemCapuchinSwapNoFA,
		bench.SystemCapuchinRecompute, bench.SystemCapuchinRecompNoCR:
		if plan.Planned && plan.SwapTensors == 0 && plan.RecomputeCount == 0 {
			return min(n, 1), min(n, 1)
		}
		return min(n, 2), n
	}
	return n, n
}

// cellName labels a cell in a failure message.
func cellName(c bench.RunConfig) string {
	return fmt.Sprintf("%s/%s/%s/b%d/%.1fGiB", c.Model, c.Mode, c.System, c.Batch, float64(c.Device.MemoryBytes)/float64(hw.GiB))
}

// checkCells runs every cell untraced, where Run may skip, and with a
// discarding tracer, where it may not, and requires the two results to
// be equal field for field and every failure to be an OOM. A fitting
// cell must simulate as many iterations as simulates allows, and a
// failing one all of its iterations. It returns the
// iterations the untraced runs simulated and the iterations their stats
// hold.
func checkCells(t *testing.T, cells []bench.RunConfig) (simulated, iterations int64) {
	t.Helper()
	ts := bench.NewTemplates()
	for _, c := range cells {
		before := exec.IterationsSimulated()
		got := ts.RunTraced(c, nil)
		n := exec.IterationsSimulated() - before
		want := ts.RunTraced(c, discard{})
		name := cellName(c)
		if d := resultDiff(got, want); d != "" {
			t.Errorf("%s: skipping run differs from the traced run: %s", name, d)
		}
		// A max-batch search counts any failure as "does not fit", so a
		// failure other than OOM would silently shrink an answer.
		if !got.OK && !errors.Is(got.Err, exec.ErrIterationOOM) {
			t.Errorf("%s: failed without OOM: %v", name, got.Err)
		}
		lo, hi := int64(len(got.Stats)), int64(len(got.Stats))
		if got.OK {
			lo, hi = simulates(c, got.Plan, hi)
		}
		if c.Devices <= 1 && c.Schedule == "" && (n < lo || n > hi) {
			t.Errorf("%s: simulated %d of %d iterations, want %d to %d", name, n, len(got.Stats), lo, hi)
		}
		simulated += n
		iterations += int64(len(got.Stats))
	}
	return simulated, iterations
}

// TestRunSkipMatchesTracedSweep is the iteration skip's differential
// proof on the benchmark's max-batch sweep: the Table 2 searches of six
// models and four systems on a 16 GiB P100, 410 probe cells. Every cell
// must give the same result with and without a tracer, every fitting
// TF-ori, vDNN and OpenAI-M probe and every fitting Capuchin probe that
// plans nothing must simulate one iteration of its three, and any other
// fitting Capuchin probe two or three.
func TestRunSkipMatchesTracedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Table 2 max-batch sweep")
	}
	dev := hw.P100().WithMemory(16 * hw.GiB)
	var searches []bench.RunConfig
	for _, m := range []string{"vgg16", "resnet50", "resnet152", "inceptionv3", "inceptionv4", "bert"} {
		for _, sys := range []bench.System{bench.SystemTF, bench.SystemVDNN, bench.SystemOpenAIMemory, bench.SystemCapuchin} {
			searches = append(searches, bench.RunConfig{Model: m, System: sys, Device: dev})
		}
	}
	cells := sweepCells(2, func(r *bench.Runner) { r.MaxBatchAll(searches) })
	simulated, iterations := checkCells(t, cells)
	// Without the skip every iteration simulates: 1,028. 208 fitting
	// static-policy probes and 44 fitting Capuchin probes that plan
	// nothing each skip two; no Capuchin probe whose plan acts settles
	// within three iterations.
	if len(cells) != 410 || simulated != 524 || iterations != 1028 {
		t.Errorf("%d probe cells simulated %d of %d iterations, want 410 cells simulating 524 of 1028",
			len(cells), simulated, iterations)
	}
}

// goldenCells returns every cell the quick goldens run (Fig. 1, Table 2,
// the policy arena and the fleet scenarios' profiling) and quick Table
// 3's eager searches.
func goldenCells(t *testing.T) []bench.RunConfig {
	t.Helper()
	return sweepCells(2, func(r *bench.Runner) {
		o := bench.Options{Device: hw.P100().WithMemory(4 * hw.GiB), Quick: true, Iterations: 2, Runner: r}
		bench.Fig1(o)
		bench.Table2(o)
		bench.Table3(o)
		bench.Arena(o)
		if _, err := bench.FleetScenarios(o, bench.FleetOptions{}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunSkipMatchesTracedGoldens repeats the differential proof on
// goldenCells.
func TestRunSkipMatchesTracedGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick golden experiments")
	}
	cells := goldenCells(t)
	simulated, iterations := checkCells(t, cells)
	if len(cells) != 371 || simulated != 645 || iterations != 901 {
		t.Errorf("%d golden cells simulated %d of %d iterations, want 371 cells simulating 645 of 901",
			len(cells), simulated, iterations)
	}
}

// checkCollectorCells runs every cell traced by a bare Collector, which
// repeats the records of the iterations Run skips, and by a Collector
// teed with a discarding tracer, which makes Run simulate every
// iteration. The two must give equal results and decision logs, and a
// run that skipped byte-equal JSONL and Chrome traces (one that did not
// recorded what the reference did by construction). It returns the
// iterations the bare-Collector runs simulated and the iterations their
// stats hold.
func checkCollectorCells(t *testing.T, cells []bench.RunConfig) (simulated, iterations int64) {
	t.Helper()
	ts := bench.NewTemplates()
	for _, c := range cells {
		skipping, full := obs.NewCollector(), obs.NewCollector()
		before := exec.IterationsSimulated()
		got := ts.RunTraced(c, skipping)
		n := exec.IterationsSimulated() - before
		want := ts.RunTraced(c, obs.Tee(full, discard{}))
		name := cellName(c)
		if d := resultDiff(got, want); d != "" {
			t.Errorf("%s: Collector-traced run differs from the simulated run: %s", name, d)
		}
		if !reflect.DeepEqual(skipping.Decisions(), full.Decisions()) {
			t.Errorf("%s: decision log differs from the simulated run's", name)
		}
		simulated += n
		iterations += int64(len(got.Stats))
		if n == int64(len(got.Stats)) {
			continue
		}
		gotJSONL, _, _ := skipping.AppendJSONL(nil, obs.Cursor{})
		wantJSONL, _, _ := full.AppendJSONL(nil, obs.Cursor{})
		if !bytes.Equal(gotJSONL, wantJSONL) {
			t.Errorf("%s: JSONL differs from the simulated run's (%d bytes, want %d)", name, len(gotJSONL), len(wantJSONL))
		}
		var gotTrace, wantTrace bytes.Buffer
		if err := obs.WriteChromeTrace(&gotTrace, skipping.Events()); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteChromeTrace(&wantTrace, full.Events()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotTrace.Bytes(), wantTrace.Bytes()) {
			t.Errorf("%s: Chrome trace differs from the simulated run's", name)
		}
	}
	return simulated, iterations
}

// serveMenu returns the cells of the benchmark's serve workload, as
// capuchin-serve canonicalizes its requests: alexnet, mobilenetv2 and
// resnet50 at batches 1 to 32, TF-ori and Capuchin, on 2, 4 and 16 GiB,
// 3 iterations each.
func serveMenu(t *testing.T) []bench.RunConfig {
	t.Helper()
	var cells []bench.RunConfig
	for _, m := range []string{"alexnet", "mobilenetv2", "resnet50"} {
		for _, b := range []int64{1, 2, 4, 8, 12, 16, 24, 32} {
			for _, sys := range []string{"tf-ori", "capuchin"} {
				for _, mem := range []float64{2, 4, 16} {
					rr := serve.RunRequest{Model: m, Batch: b, System: sys, Iterations: 3, MemGiB: mem}
					cfg, err := rr.ToRunConfig()
					if err != nil {
						t.Fatal(err)
					}
					cells = append(cells, bench.CanonicalConfig(cfg))
				}
			}
		}
	}
	return cells
}

// TestRunSkipMatchesTracedServe repeats the differential proof on
// serveMenu's untraced runs. 144 cells of 3 iterations: resnet50 TF-ori
// at batches 24 and 32 on 2 GiB run out of memory in their first, so the
// stats hold 428. The other TF-ori cells and the 70 Capuchin cells that
// plan nothing simulate one iteration, and the other two Capuchin cells
// all three.
func TestRunSkipMatchesTracedServe(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve menu")
	}
	cells := serveMenu(t)
	simulated, iterations := checkCells(t, cells)
	if len(cells) != 144 || simulated != 148 || iterations != 428 {
		t.Errorf("%d serve cells simulated %d of %d iterations, want 144 cells simulating 148 of 428",
			len(cells), simulated, iterations)
	}
}

// TestRunSkipCollectorByteIdentical is the differential proof for traced
// runs: a run traced by a Collector skips the iterations an untraced run
// skips, and the Collector's records equal a fully simulated run's byte
// for byte. It covers every cell of the benchmark's serve menu, where
// each capuchin-serve request is such a run, and every cell the quick
// goldens run.
func TestRunSkipCollectorByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve menu and the quick golden experiments, each twice traced")
	}
	// Every run here is sequential, so the race detector has nothing to
	// check; the Collector's own races are covered in internal/obs.
	if raceDetector {
		t.Skip("single-goroutine")
	}
	t.Run("serve-menu", func(t *testing.T) {
		cells := serveMenu(t)
		simulated, iterations := checkCollectorCells(t, cells)
		// The counts of TestRunSkipMatchesTracedServe's untraced runs.
		if len(cells) != 144 || simulated != 148 || iterations != 428 {
			t.Errorf("%d serve cells simulated %d of %d iterations, want 144 cells simulating 148 of 428",
				len(cells), simulated, iterations)
		}
	})
	t.Run("goldens", func(t *testing.T) {
		cells := goldenCells(t)
		simulated, iterations := checkCollectorCells(t, cells)
		// The counts of TestRunSkipMatchesTracedGoldens' untraced runs.
		if len(cells) != 371 || simulated != 645 || iterations != 901 {
			t.Errorf("%d golden cells simulated %d of %d iterations, want 371 cells simulating 645 of 901",
				len(cells), simulated, iterations)
		}
	})
	t.Run("vgg16-train", func(t *testing.T) {
		// capuchin-train's vgg16/b300 run: feedback settles after 41
		// iterations, and the Collector repeats the other 19.
		cell := bench.RunConfig{Model: "vgg16", Batch: 300, System: bench.SystemCapuchin,
			Device: hw.P100(), Iterations: 60}
		if simulated, iterations := checkCollectorCells(t, []bench.RunConfig{cell}); simulated != 41 || iterations != 60 {
			t.Errorf("vgg16/b300 simulated %d of %d iterations, want 41 of 60", simulated, iterations)
		}
	})
	t.Run("resnet50-train", func(t *testing.T) {
		// capuchin-train's resnet50/b32 run has memory to spare: the plan
		// is empty, so the Collector repeats the measured iteration 19
		// times without the plan decision its EndIteration recorded.
		cell := bench.RunConfig{Model: "resnet50", Batch: 32, System: bench.SystemCapuchin,
			Device: hw.P100(), Iterations: 20}
		if simulated, iterations := checkCollectorCells(t, []bench.RunConfig{cell}); simulated != 1 || iterations != 20 {
			t.Errorf("resnet50/b32 simulated %d of %d iterations, want 1 of 20", simulated, iterations)
		}
	})
}

// TestRunSkipMatchesTracedTrain is the differential proof for Capuchin on
// the benchmark's train workload: its five 400-iteration runs on a 16 GiB
// P100, from no to heavy memory pressure, then the swap-only and
// recompute-only variants and the system without feedback. Each
// untraced run must equal its traced run, plan and feedback adjustments
// included, and simulate the pinned number of iterations: a run stops
// simulating once its guided schedule settles.
func TestRunSkipMatchesTracedTrain(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 400-iteration Capuchin cells")
	}
	// Every run here is sequential, so the race detector has nothing to
	// check, and it would make this the slowest test of make race.
	if raceDetector {
		t.Skip("single-goroutine; 50 s under the race detector")
	}
	cells := []struct {
		model     string
		batch     int64
		system    bench.System
		simulated int64
	}{
		// The train workload. resnet50/b160 plans nothing and repeats
		// its measured iteration; feedback settles vgg16/b300,
		// resnet50/b512 and bert/b128 later, and inceptionv3/b400 never
		// within 400 iterations.
		{"resnet50", 160, bench.SystemCapuchin, 1},
		{"vgg16", 300, bench.SystemCapuchin, 41},
		{"resnet50", 512, bench.SystemCapuchin, 329},
		{"inceptionv3", 400, bench.SystemCapuchin, 400},
		{"bert", 128, bench.SystemCapuchin, 81},
		{"bert", 128, bench.SystemCapuchinSwap, 131},
		// A recompute-only plan has no in-trigger for feedback to move.
		{"resnet50", 512, bench.SystemCapuchinRecompute, 2},
	}
	var train int64
	for i, c := range cells {
		cfg := bench.RunConfig{Model: c.model, Batch: c.batch, System: c.system, Device: hw.P100(), Iterations: 400}
		before := exec.IterationsSimulated()
		got := bench.Run(cfg)
		n := exec.IterationsSimulated() - before
		want := bench.RunTraced(cfg, discard{})
		name := fmt.Sprintf("%s/b%d/%s", c.model, c.batch, c.system)
		if d := resultDiff(got, want); d != "" {
			t.Errorf("%s: skipping run differs from the traced run: %s", name, d)
		}
		if n != c.simulated {
			t.Errorf("%s: simulated %d of 400 iterations, want %d", name, n, c.simulated)
		}
		if i < 5 {
			train += n
		}
	}
	if train != 852 {
		t.Errorf("the train workload's cells simulated %d of 2000 iterations, want 852", train)
	}

	// Without feedback the in-triggers never move, so the run repeats
	// from its first guided iteration.
	run := func(tr obs.Tracer) ([]exec.IterStats, core.PlanSummary, int64) {
		return runCapuchin(t, "resnet50", 512, core.New(core.Options{DisableFeedback: true}), tr, 400)
	}
	got, gotPlan, n := run(nil)
	want, wantPlan, _ := run(discard{})
	if !reflect.DeepEqual(got, want) || gotPlan != wantPlan {
		t.Errorf("resnet50/b512 without feedback: skipping run differs from the traced run")
	}
	if n != 2 {
		t.Errorf("resnet50/b512 without feedback: simulated %d of 400 iterations, want 2", n)
	}
}
