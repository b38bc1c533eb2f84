package exec_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"capuchin/internal/bench"
	"capuchin/internal/exec"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
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

// skips reports whether a fitting cell of cfg's system skips from its
// second iteration: the static policies digest their state, and in graph
// mode every iteration boundary of theirs is the same.
func skips(cfg bench.RunConfig) bool {
	switch cfg.System {
	case bench.SystemTF, bench.SystemVDNN, "vdnn-all", bench.SystemOpenAIMemory, bench.SystemOpenAISpeed:
		return cfg.Mode == exec.GraphMode && cfg.Schedule == "" && cfg.Devices <= 1 && !cfg.Faults.Enabled() && !cfg.RecordSpans
	}
	return false
}

// checkCells runs every cell untraced, where Run may skip, and with a
// discarding tracer, where it may not, and requires the two results to
// be equal field for field and every failure to be an OOM. A cell that skips must simulate exactly one
// iteration and every other cell all of its iterations. It returns the
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
		name := fmt.Sprintf("%s/%s/%s/b%d/%.1fGiB", c.Model, c.Mode, c.System, c.Batch, float64(c.Device.MemoryBytes)/float64(hw.GiB))
		if d := resultDiff(got, want); d != "" {
			t.Errorf("%s: skipping run differs from the traced run: %s", name, d)
		}
		// A max-batch search counts any failure as "does not fit", so a
		// failure other than OOM would silently shrink an answer.
		if !got.OK && !errors.Is(got.Err, exec.ErrIterationOOM) {
			t.Errorf("%s: failed without OOM: %v", name, got.Err)
		}
		wantSim := int64(len(got.Stats))
		if got.OK && skips(c) && wantSim > 1 {
			wantSim = 1
		}
		if c.Devices <= 1 && c.Schedule == "" && n != wantSim {
			t.Errorf("%s: simulated %d of %d iterations, want %d", name, n, len(got.Stats), wantSim)
		}
		simulated += n
		iterations += int64(len(got.Stats))
	}
	return simulated, iterations
}

// TestRunSkipMatchesTracedSweep is the iteration skip's differential
// proof on the benchmark's max-batch sweep: the Table 2 searches of six
// models and four systems on a 16 GiB P100, 410 probe cells. Every cell
// must give the same result with and without a tracer, and every
// fitting TF-ori, vDNN and OpenAI-M probe must simulate one iteration of
// its three.
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
	// static-policy probes each skip two.
	if len(cells) != 410 || simulated != 612 || iterations != 1028 {
		t.Errorf("%d probe cells simulated %d of %d iterations, want 410 cells simulating 612 of 1028",
			len(cells), simulated, iterations)
	}
}

// TestRunSkipMatchesTracedGoldens repeats the differential proof on
// every cell the quick goldens run (Fig. 1, Table 2, the policy arena
// and the fleet scenarios' profiling) and on quick Table 3's eager
// searches.
func TestRunSkipMatchesTracedGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick golden experiments")
	}
	cells := sweepCells(2, func(r *bench.Runner) {
		o := bench.Options{Device: hw.P100().WithMemory(4 * hw.GiB), Quick: true, Iterations: 2, Runner: r}
		bench.Fig1(o)
		bench.Table2(o)
		bench.Table3(o)
		bench.Arena(o)
		if _, err := bench.FleetScenarios(o, bench.FleetOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	simulated, iterations := checkCells(t, cells)
	t.Logf("%d golden cells: %d iterations simulated of %d", len(cells), simulated, iterations)
}
