package checkpoint

import (
	"errors"
	"math"
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
	mem := New(g, Memory)
	spd := New(g, Speed)
	if mem.Name() != "openai-memory" || spd.Name() != "openai-speed" {
		t.Error("names wrong")
	}
	if mem.Drops() == 0 || spd.Drops() == 0 {
		t.Errorf("no drops planned: memory %d, speed %d", mem.Drops(), spd.Drops())
	}
	// Speed mode keeps conv/matmul outputs: exactly 6 convs + 1 fc.
	if got := spd.Checkpoints(); got != 7 {
		t.Errorf("speed checkpoints = %d, want 7", got)
	}
	// Memory mode keeps about sqrt of the articulation count.
	arts := len(graph.ArticulationTensors(g))
	want := int(math.Ceil(math.Sqrt(float64(arts))))
	if got := mem.Checkpoints(); got < want || got > 2*want+1 {
		t.Errorf("memory checkpoints = %d, want about sqrt(%d)=%d", got, arts, want)
	}
	if mem.TracksAccesses() {
		t.Error("checkpointing should not charge tracking overhead")
	}
}

func TestCheckpointMatchesOracle(t *testing.T) {
	// Speed mode keeps every conv output (48 MB here), so it needs more
	// memory than memory mode — exactly the paper's Table 2 ordering.
	capacities := map[Mode]int64{Memory: 72 * hw.MiB, Speed: 96 * hw.MiB}
	for _, mode := range []Mode{Memory, Speed} {
		g := build(t)
		p := New(g, mode)
		s, err := exec.NewSession(g, exec.Config{
			Device:              testutil.Device(capacities[mode]),
			Policy:              p,
			CollectiveRecompute: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		sts, err := s.Run(2)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if sts[0].RecomputeCount == 0 {
			t.Errorf("%s: no recomputation happened", p.Name())
		}
		testutil.MatchesReference(t, p.Name(), build(t), sts)
	}
}

func TestMemoryModeSavesMoreThanSpeed(t *testing.T) {
	// Speed mode keeps all conv outputs, so its peak memory is at least
	// that of memory mode on a conv-dominated net.
	peak := func(mode Mode) int64 {
		g := build(t)
		s, err := exec.NewSession(g, exec.Config{
			Device:              testutil.Device(256 * hw.MiB),
			Policy:              New(g, mode),
			CollectiveRecompute: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunIteration(); err != nil {
			t.Fatal(err)
		}
		return s.Pool().Peak()
	}
	if pm, ps := peak(Memory), peak(Speed); pm > ps {
		t.Errorf("memory-mode peak %d exceeds speed-mode peak %d", pm, ps)
	}
}

func TestCheckpointFailsWithoutFallback(t *testing.T) {
	g := build(t)
	s, err := exec.NewSession(g, exec.Config{
		Device:              testutil.Device(16 * hw.MiB),
		Policy:              New(g, Memory),
		CollectiveRecompute: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunIteration(); !errors.Is(err, exec.ErrIterationOOM) {
		t.Fatalf("err = %v, want ErrIterationOOM", err)
	}
}
