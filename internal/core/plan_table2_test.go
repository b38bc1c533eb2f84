package core_test

import (
	"cmp"
	"slices"
	"sync"
	"testing"

	"capuchin/internal/bench"
	"capuchin/internal/core"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/models"
	"capuchin/internal/obs"
)

// TestPlannerMatchesReferenceOnTable2 is the differential test of the
// Policy Maker on real inputs: the measured iteration of every Capuchin
// cell the quick Table 2 sweep simulates (its golden's settings) must
// give the same selections, in the same order, and the same plan, usage
// curve and peak as the reference Policy Maker.
func TestPlannerMatchesReferenceOnTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("the quick Table 2 sweep takes a few seconds")
	}
	r := bench.NewRunner(2)
	var mu sync.Mutex
	var cells []bench.RunConfig
	r.Observe(func(cfg bench.RunConfig) obs.Tracer {
		if cfg.System == bench.SystemCapuchin {
			mu.Lock()
			cells = append(cells, cfg)
			mu.Unlock()
		}
		return nil
	})
	bench.Table2(bench.Options{Device: hw.P100().WithMemory(4 * hw.GiB), Quick: true, Iterations: 2, Runner: r})
	slices.SortFunc(cells, func(a, b bench.RunConfig) int {
		if c := cmp.Compare(a.Model, b.Model); c != 0 {
			return c
		}
		return cmp.Compare(a.Batch, b.Batch)
	})
	var planned int
	for _, cfg := range cells {
		spec, err := models.Get(cfg.Model)
		if err != nil {
			t.Fatal(err)
		}
		g, err := spec.Build(cfg.Batch, graph.GraphModeOptions())
		if err != nil {
			t.Fatal(err)
		}
		n, iterErr, err := core.ReplayPlanAgainstReference(g, cfg.Device)
		switch {
		case iterErr:
			// The cell OOMs in its measured iteration: nothing to plan.
		case err != nil:
			t.Errorf("%s b%d: %v", cfg.Model, cfg.Batch, err)
		case n > 0:
			planned++
		}
	}
	if len(cells) < 20 || planned < 10 {
		t.Errorf("the sweep simulated %d Capuchin cells, %d with a plan; the test wants the sweep's", len(cells), planned)
	}
	t.Logf("%d Capuchin cells, %d with a plan", len(cells), planned)
}
