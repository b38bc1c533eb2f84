package core_test

import (
	"fmt"
	"log"

	"capuchin/internal/core"
	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// buildNet constructs a small training graph for the examples.
func buildNet() *graph.Graph {
	b := graph.NewBuilder("example")
	x := b.Input("data", tensor.Shape{8, 3, 64, 64}, tensor.Float32)
	labels := b.Input("labels", tensor.Shape{8, 10}, tensor.Float32)
	h := x
	for i := 0; i < 6; i++ {
		w := b.Variable(fmt.Sprintf("conv%d_w", i), tensor.Shape{64, h.Shape[1], 3, 3})
		h = b.Apply1(fmt.Sprintf("conv%d", i), ops.Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, h, w)
		h = b.Apply1(fmt.Sprintf("relu%d", i), ops.ReLU, h)
	}
	h = b.Apply1("gap", ops.Pool{Kind: ops.AvgPoolKind}, h)
	flat := b.Apply1("flatten", ops.Reshape{To: tensor.Shape{8, 64}}, h)
	w := b.Variable("fc_w", tensor.Shape{64, 10})
	logits := b.Apply1("fc", ops.MatMul{}, flat, w)
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, logits, labels)
	g, err := b.Build(loss, graph.GraphModeOptions())
	if err != nil {
		log.Fatal(err)
	}
	return g
}

// Example shows the canonical Capuchin workflow: one measured iteration in
// passive mode, then guided execution under a tight memory cap.
func Example() {
	policy := core.New(core.Options{})
	s, err := exec.NewSession(buildNet(), exec.Config{
		Device:              hw.P100().WithMemory(48 * hw.MiB),
		Policy:              policy,
		CollectiveRecompute: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	stats, err := s.Run(3)
	if err != nil {
		log.Fatal(err)
	}
	sum := policy.Summary()
	fmt.Printf("planned: %v, plan acts on %d tensors\n", sum.Planned, sum.SwapTensors+sum.RecomputeCount)
	fmt.Printf("guided iteration faster than measured: %v\n", stats[2].Duration < stats[0].Duration)
	// Output:
	// planned: true, plan acts on 3 tensors
	// guided iteration faster than measured: true
}
