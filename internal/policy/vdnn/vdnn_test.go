package vdnn

import (
	"errors"
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
	"capuchin/internal/testutil"
)

func build(t *testing.T) *graph.Graph {
	return testutil.SmallCNN(t, 6, 64, graph.GraphModeOptions())
}

func TestScheduleTargets(t *testing.T) {
	g := build(t)
	p := New(g, ConvOnly)
	// Conv inputs with reuse: the data input (reused by conv0's filter
	// gradient) plus the relu outputs feeding conv1..conv5.
	if got := p.Targets(); got != 6 {
		t.Errorf("ConvOnly targets = %d, want 6", got)
	}
	pa := New(g, All)
	if pa.Targets() <= p.Targets() {
		t.Errorf("All mode (%d) should offload more than ConvOnly (%d)", pa.Targets(), p.Targets())
	}
	if p.Name() != "vdnn" || pa.Name() != "vdnn-all" {
		t.Error("names wrong")
	}
	if p.TracksAccesses() {
		t.Error("vDNN should not charge tracking overhead")
	}
}

func TestVDNNMatchesOracle(t *testing.T) {
	want := testutil.Oracle(t, func() *graph.Graph { return build(t) }, 2)
	g := build(t)
	s, err := exec.NewSession(g, exec.Config{
		Device:      testutil.Device(56 * hw.MiB),
		Policy:      New(g, ConvOnly),
		CoupledSwap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sts, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].SwapOutCount == 0 {
		t.Fatal("vDNN swapped nothing out")
	}
	if sts[0].PrefetchCount == 0 {
		t.Fatal("vDNN prefetched nothing")
	}
	for i := range sts {
		if sts[i].ParamFingerprint != want[i].ParamFingerprint {
			t.Errorf("iter %d: fingerprint diverged under vDNN", i)
		}
	}
}

func TestVDNNFailsOnInsufficientStaticPlan(t *testing.T) {
	// At a capacity below what conv-input offloading can reach, vDNN has
	// no fallback and the iteration must fail with OOM.
	g := build(t)
	s, err := exec.NewSession(g, exec.Config{
		Device:      testutil.Device(20 * hw.MiB),
		Policy:      New(g, ConvOnly),
		CoupledSwap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunIteration(); !errors.Is(err, exec.ErrIterationOOM) {
		t.Fatalf("err = %v, want ErrIterationOOM", err)
	}
}

func TestVDNNCoupledSyncOverhead(t *testing.T) {
	// Fig. 1: layer-wise synchronization exposes transfer time when a
	// layer's compute cannot cover its swap. Coupled must not beat
	// decoupled execution of the same schedule.
	run := func(coupled bool) exec.IterStats {
		g := build(t)
		s, err := exec.NewSession(g, exec.Config{
			Device:      testutil.Device(56 * hw.MiB),
			Policy:      New(g, ConvOnly),
			CoupledSwap: coupled,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	coupled := run(true)
	decoupled := run(false)
	if coupled.Duration < decoupled.Duration {
		t.Errorf("coupled (%v) faster than decoupled (%v)", coupled.Duration, decoupled.Duration)
	}
	if coupled.StallTime == 0 {
		t.Error("coupled vDNN shows no synchronization stalls")
	}
}

func TestVDNNAllModeMatchesOracle(t *testing.T) {
	want := testutil.Oracle(t, func() *graph.Graph { return build(t) }, 2)
	g := build(t)
	s, err := exec.NewSession(g, exec.Config{
		Device:      testutil.Device(56 * hw.MiB),
		Policy:      New(g, All),
		CoupledSwap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sts, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].SwapOutCount == 0 {
		t.Fatal("vDNN-all swapped nothing")
	}
	for i := range sts {
		if sts[i].ParamFingerprint != want[i].ParamFingerprint {
			t.Errorf("iter %d: fingerprint diverged under vDNN-all", i)
		}
	}
}

func TestVDNNIgnoresConvFreeNetwork(t *testing.T) {
	// A network without convolutions gives ConvOnly vDNN nothing to do —
	// the static-heuristic failure mode of the paper's §3.1.
	b := graph.NewBuilder("dense")
	x := b.Input("data", tensor.Shape{8, 64}, tensor.Float32)
	labels := b.Input("labels", tensor.Shape{8, 10}, tensor.Float32)
	w1 := b.Variable("w1", tensor.Shape{64, 64})
	w2 := b.Variable("w2", tensor.Shape{64, 10})
	h := b.Apply1("fc1", ops.MatMul{}, x, w1)
	h = b.Apply1("relu", ops.ReLU, h)
	logits := b.Apply1("fc2", ops.MatMul{}, h, w2)
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, logits, labels)
	g, err := b.Build(loss, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := New(g, ConvOnly).Targets(); got != 0 {
		t.Errorf("ConvOnly found %d targets in a conv-free net, want 0", got)
	}
	if got := New(g, All).Targets(); got == 0 {
		t.Error("All mode found nothing in a conv-free net")
	}
}
