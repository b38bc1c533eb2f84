package superneurons

import (
	"errors"
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/testutil"
)

func build(t *testing.T) *graph.Graph {
	return testutil.SmallCNN(t, 6, 64, graph.GraphModeOptions())
}

func TestScheduleShape(t *testing.T) {
	g := build(t)
	p := New(g)
	if p.Name() != "superneurons" {
		t.Error("name")
	}
	if p.TracksAccesses() {
		t.Error("superneurons should not charge tracking overhead")
	}
	// ReLU outputs are drop targets; they are also the conv inputs, so
	// after exclusion the swap set holds only the raw data input.
	// Six ReLU outputs plus the global-average-pool output.
	if got := p.DropTargets(); got != 7 {
		t.Errorf("drop targets = %d, want 7 cheap-layer outputs", got)
	}
	if got := p.SwapTargets(); got != 1 {
		t.Errorf("swap targets = %d, want 1 (the data input)", got)
	}
}

func TestSuperNeuronsMatchesOracle(t *testing.T) {
	g := build(t)
	s, err := exec.NewSession(g, exec.Config{
		Device:              testutil.Device(72 * hw.MiB),
		Policy:              New(g),
		CollectiveRecompute: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sts, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].RecomputeCount == 0 {
		t.Error("no recomputation despite dropped cheap layers")
	}
	testutil.MatchesReference(t, "superneurons", build(t), sts)
}

func TestSuperNeuronsFailsOnOOM(t *testing.T) {
	g := build(t)
	s, err := exec.NewSession(g, exec.Config{
		Device:              testutil.Device(20 * hw.MiB),
		Policy:              New(g),
		CollectiveRecompute: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunIteration(); !errors.Is(err, exec.ErrIterationOOM) {
		t.Fatalf("err = %v, want ErrIterationOOM", err)
	}
}

func TestSuperNeuronsNeverRecomputesConvs(t *testing.T) {
	// Conv outputs must not appear in the drop set; only cheap layers do.
	g := build(t)
	p := New(g)
	for k := range p.dropAt {
		tt := g.Tensor(k.tensorID)
		if tt == nil {
			t.Fatalf("unknown drop target %s", k.tensorID)
		}
		prod := g.Producer(tt)
		if convLayer(prod) {
			t.Errorf("conv output %s scheduled for recomputation", k.tensorID)
		}
	}
}
