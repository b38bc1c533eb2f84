// Package testutil provides small training graphs and device helpers
// shared by tests across the simulator's packages.
package testutil

import (
	"fmt"
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// SmallCNN builds a constant-width convolution chain: depth conv+relu
// pairs of width channels on batch 8 64x64 inputs, global pool, dense
// classifier. Constant width keeps per-op working sets small relative to
// the total activation footprint, leaving policies room to act.
func SmallCNN(tb testing.TB, depth int, width int64, opt graph.BuildOptions) *graph.Graph {
	tb.Helper()
	b := graph.NewBuilder("smallcnn")
	x := b.Input("data", tensor.Shape{8, 3, 64, 64}, tensor.Float32)
	labels := b.Input("labels", tensor.Shape{8, 10}, tensor.Float32)
	h := x
	for i := 0; i < depth; i++ {
		w := b.Variable(fmt.Sprintf("conv%d_w", i), tensor.Shape{width, h.Shape[1], 3, 3})
		h = b.Apply1(fmt.Sprintf("conv%d", i), ops.Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, h, w)
		h = b.Apply1(fmt.Sprintf("relu%d", i), ops.ReLU, h)
	}
	h = b.Apply1("gap", ops.Pool{Kind: ops.AvgPoolKind}, h)
	flat := b.Apply1("flatten", ops.Reshape{To: tensor.Shape{8, h.Shape.Elems() / 8}}, h)
	w := b.Variable("fc_w", tensor.Shape{flat.Shape[1], 10})
	logits := b.Apply1("fc", ops.MatMul{}, flat, w)
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, logits, labels)
	g, err := b.Build(loss, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// Device returns a P100 with the given memory capacity.
func Device(mem int64) hw.DeviceSpec {
	d := hw.P100()
	d.MemoryBytes = mem
	return d
}

// MatchesReference fails tb unless each iteration in sts, a run of what,
// reports the loss and parameter fingerprints exec.Reference gives for
// g, a graph no session is running.
func MatchesReference(tb testing.TB, what string, g *graph.Graph, sts []exec.IterStats) {
	tb.Helper()
	for i, want := range exec.Reference(g, len(sts)) {
		if got := sts[i].Fingerprints(); got != want {
			tb.Errorf("%s iter %d: {loss, param} fingerprints %x, exec.Reference %x", what, i, got, want)
		}
	}
}

// ResidualCNN builds a small ResNet-ish graph: a stem convolution and two
// residual blocks (conv-relu-conv plus identity shortcut) ahead of the
// classifier. The skip connections give tensors long liveness gaps, so a
// memory-capped run produces genuine swap and recompute traffic. The
// Chrome trace and Prometheus goldens come from a Capuchin run of it on a
// 24 MiB device.
func ResidualCNN(tb testing.TB) *graph.Graph {
	tb.Helper()
	b := graph.NewBuilder("residualcnn")
	x := b.Input("data", tensor.Shape{8, 3, 64, 64}, tensor.Float32)
	labels := b.Input("labels", tensor.Shape{8, 10}, tensor.Float32)
	const width = 32
	stemW := b.Variable("stem_w", tensor.Shape{width, 3, 3, 3})
	h := b.Apply1("stem", ops.Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, x, stemW)
	for i := 0; i < 2; i++ {
		short := h
		w1 := b.Variable(fmt.Sprintf("res%d_w1", i), tensor.Shape{width, width, 3, 3})
		h = b.Apply1(fmt.Sprintf("res%d_conv1", i), ops.Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, h, w1)
		h = b.Apply1(fmt.Sprintf("res%d_relu1", i), ops.ReLU, h)
		w2 := b.Variable(fmt.Sprintf("res%d_w2", i), tensor.Shape{width, width, 3, 3})
		h = b.Apply1(fmt.Sprintf("res%d_conv2", i), ops.Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, h, w2)
		h = b.Apply1(fmt.Sprintf("res%d_add", i), ops.Add, h, short)
		h = b.Apply1(fmt.Sprintf("res%d_relu2", i), ops.ReLU, h)
	}
	h = b.Apply1("gap", ops.Pool{Kind: ops.AvgPoolKind}, h)
	flat := b.Apply1("flatten", ops.Reshape{To: tensor.Shape{8, h.Shape.Elems() / 8}}, h)
	fcW := b.Variable("fc_w", tensor.Shape{flat.Shape[1], 10})
	logits := b.Apply1("fc", ops.MatMul{}, flat, fcW)
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, logits, labels)
	g, err := b.Build(loss, graph.GraphModeOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return g
}
