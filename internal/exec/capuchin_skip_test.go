package exec_test

import (
	"bytes"
	"reflect"
	"testing"

	"capuchin/internal/core"
	"capuchin/internal/exec"
	"capuchin/internal/fault"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/models"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
)

// noComm is collective traffic that never occupies the link.
type noComm struct{}

func (noComm) WindowAt(sim.Time) (exec.CommWindow, bool) { return exec.CommWindow{}, false }

// capuchinSession builds a session of model at batch on a 16 GiB P100
// under policy c, with cfg applied.
func capuchinSession(t *testing.T, model string, batch int64, c *core.Capuchin, cfg func(*exec.Config)) *exec.Session {
	t.Helper()
	spec, err := models.Get(model)
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.BuildShaped(batch, 0, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	ec := exec.Config{Device: hw.P100(), Policy: c}
	if cfg != nil {
		cfg(&ec)
	}
	s, err := exec.NewSession(g, ec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runCapuchin runs n iterations of a capuchinSession under c, traced by
// tr when it is non-nil, and returns their stats, c's plan summary and
// the iterations simulated.
func runCapuchin(t *testing.T, model string, batch int64, c *core.Capuchin, tr obs.Tracer, n int) ([]exec.IterStats, core.PlanSummary, int64) {
	t.Helper()
	s := capuchinSession(t, model, batch, c, func(ec *exec.Config) { ec.Tracer = tr })
	before := exec.IterationsSimulated()
	stats, err := s.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return stats, c.Summary(), exec.IterationsSimulated() - before
}

// TestCapuchinSkipGate: an unobserved vgg16/b300 Capuchin run settles
// after 41 iterations and skips the rest, and so does one a Collector
// traces. One that another tracer (a Collector teed with one included),
// a fault plan or collective traffic can observe simulates every
// iteration.
func TestCapuchinSkipGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 50 vgg16 iterations per case")
	}
	cases := []struct {
		name string
		cfg  func(*exec.Config)
		want int64
	}{
		{"unobserved", nil, 41},
		{"tracer", func(c *exec.Config) { c.Tracer = discard{} }, 50},
		{"collector", func(c *exec.Config) { c.Tracer = obs.NewCollector() }, 41},
		{"tee(collector, nop)", func(c *exec.Config) { c.Tracer = obs.Tee(obs.NewCollector(), discard{}) }, 50},
		{"faults", func(c *exec.Config) { c.Faults = fault.Plan{Seed: 1, KernelSpikeRate: 1e-9} }, 50},
		{"comm", func(c *exec.Config) { c.Comm = noComm{} }, 50},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := capuchinSession(t, "vgg16", 300, core.New(core.Options{}), c.cfg)
			before := exec.IterationsSimulated()
			if _, err := s.Run(50); err != nil {
				t.Fatal(err)
			}
			if n := exec.IterationsSimulated() - before; n != c.want {
				t.Errorf("simulated %d of 50 iterations, want %d", n, c.want)
			}
		})
	}
}

// TestCapuchinBoundaryAllocs: encoding a warm Capuchin session's
// iteration boundary, as Run does between iterations, allocates nothing.
// resnet50/b512 plans 111 swaps, and the parameter counters have passed
// the plan's keys.
func TestCapuchinBoundaryAllocs(t *testing.T) {
	s := capuchinSession(t, "resnet50", 512, core.New(core.Options{}), nil)
	for range 3 {
		if _, err := s.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	// Run alternates two buffers; the first two boundaries size them.
	for range 2 {
		if _, err := s.BoundaryRepeats(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if repeated, err := s.BoundaryRepeats(); err != nil || !repeated {
			t.Fatalf("an unchanged boundary: repeated %v, err %v", repeated, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a boundary digest allocated %.0f times, want 0", allocs)
	}
}

// timing is st without its number and fingerprints, which differ in
// every iteration.
func timing(st exec.IterStats) exec.IterStats {
	st.Iter, st.LossFingerprint, st.ParamFingerprint = 0, 0, 0
	return st
}

// TestCapuchinLoadedPlanSkip runs exported plans, read back with
// LoadPlan, in fresh sessions. Parameters' access counters run on
// across iterations and the plan keys accesses by {tensor, count}, so
// only the iteration whose parameter counts the plan was measured at
// matches its parameter keys. For a plan measured at iteration 0 that is
// the loaded run's iteration 0; for one re-measured at iteration 3, its
// iteration 3. Without feedback nothing else changes between boundaries,
// so only the parameter counters keep the digest from repeating before
// that iteration: the run must simulate one past it, then skip, and
// equal a traced run.
func TestCapuchinLoadedPlanSkip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs bert/b128 Capuchin sessions")
	}
	opts := core.Options{DisableFeedback: true}
	for _, measuredAt := range []int{0, 3} {
		c := core.New(opts)
		s := capuchinSession(t, "bert", 128, c, nil)
		for i := 0; i <= measuredAt; i++ {
			if i == measuredAt && i > 0 {
				c.InvalidatePlan("re-measure", nil)
			}
			if _, err := s.RunIteration(); err != nil {
				t.Fatal(err)
			}
		}
		var plan bytes.Buffer
		if err := c.ExportPlan(&plan); err != nil {
			t.Fatal(err)
		}
		run := func(tr obs.Tracer) ([]exec.IterStats, core.PlanSummary, int64) {
			c, err := core.LoadPlan(bytes.NewReader(plan.Bytes()), opts)
			if err != nil {
				t.Fatal(err)
			}
			return runCapuchin(t, "bert", 128, c, tr, 8)
		}
		got, gotPlan, n := run(nil)
		want, wantPlan, _ := run(discard{})
		if !reflect.DeepEqual(got, want) || gotPlan != wantPlan {
			t.Errorf("plan measured at iteration %d: skipping run differs from the traced run:\n got %v\nwant %v",
				measuredAt, got, want)
		}
		if a, b := timing(got[measuredAt]), timing(got[measuredAt+1]); a == b {
			t.Errorf("plan measured at iteration %d: that iteration repeats the next, so the test shows nothing", measuredAt)
		}
		if wantSim := int64(measuredAt + 2); n != wantSim {
			t.Errorf("plan measured at iteration %d: simulated %d of 8 iterations, want %d", measuredAt, n, wantSim)
		}
	}
}
