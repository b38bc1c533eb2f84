package exec

import (
	"fmt"
	"testing"

	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// benchCNN is testCNN for benchmarks: a small conv net built without
// *testing.T plumbing.
func benchCNN(b *testing.B) *graph.Graph {
	bld := graph.NewBuilder("benchcnn")
	x := bld.Input("data", tensor.Shape{8, 3, 64, 64}, tensor.Float32)
	labels := bld.Input("labels", tensor.Shape{8, 10}, tensor.Float32)
	h := x
	ch := int64(16)
	for i := 0; i < 4; i++ {
		w := bld.Variable(fmt.Sprintf("conv%d_w", i), tensor.Shape{ch * 2, h.Shape[1], 3, 3})
		h = bld.Apply1(fmt.Sprintf("conv%d", i), ops.Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, h, w)
		h = bld.Apply1(fmt.Sprintf("relu%d", i), ops.ReLU, h)
		ch *= 2
	}
	h = bld.Apply1("gap", ops.Pool{Kind: ops.AvgPoolKind}, h)
	flat := bld.Apply1("flatten", ops.Reshape{To: tensor.Shape{8, h.Shape.Elems() / 8}}, h)
	w := bld.Variable("fc_w", tensor.Shape{flat.Shape[1], 10})
	logits := bld.Apply1("fc", ops.MatMul{}, flat, w)
	loss := bld.Apply1("loss", ops.SoftmaxCrossEntropy{}, logits, labels)
	g, err := bld.Build(loss, graph.GraphModeOptions())
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkHotPathSessionIteration is the executor's inner loop in
// isolation: an uncontended training iteration on a warm session. After
// the first iteration binds every tensor, the steady state — access
// accounting, LRU touches, stream advancement, deferred frees — must be
// allocation-free.
func BenchmarkHotPathSessionIteration(b *testing.B) {
	s, err := NewSession(benchCNN(b), Config{Device: device(4 * hw.GiB)})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
}
