// Custom network: Capuchin needs no a-priori knowledge of operators.
//
// The paper's §3.1 argues that static policies break on new DNN types:
// vDNN only knows to offload convolution inputs, and checkpointing's speed
// mode only knows convolutions and matmuls are expensive. This example
// defines a brand-new operator (a gated mixing unit the framework has
// never seen), builds an unconventional conv-free network from it, and
// compares the policies:
//
//   - vDNN finds zero offload targets (no convolutions) and dies at the
//     framework's own limit;
//   - Capuchin, which only watches runtime tensor accesses, handles the
//     network unchanged.
//
// Run with:
//
//	go run ./examples/custom_network
package main

import (
	"errors"
	"fmt"
	"log"

	"capuchin/internal/core"
	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// GatedMix is a user-defined operator: y = a * sigmoid(b) elementwise over
// two same-shaped activations. Neither baseline has heuristics for it.
type GatedMix struct{}

// Name implements ops.Op.
func (GatedMix) Name() string { return "GatedMix" }

// InferShapes implements ops.Op.
func (GatedMix) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if len(in) != 2 || !in[0].Equal(in[1]) {
		return nil, fmt.Errorf("GatedMix wants two equal shapes, got %v", in)
	}
	return []tensor.Shape{in[0]}, nil
}

// Algorithms implements ops.Op: memory-bound, no workspace. Like every
// op, it appends its menu to dst instead of allocating one.
func (GatedMix) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []ops.Algorithm) []ops.Algorithm {
	bytes := int64(0)
	if len(in) == 2 {
		bytes = 3 * in[0].Elems() * 4
	}
	return append(dst, ops.Algorithm{Name: "elementwise", Workspace: 0, Duration: dev.MemoryTime(bytes)})
}

// GatedMixGrad computes one operand's gradient of GatedMix from
// [other-operand, dy]; the same cost shape as the forward op.
type GatedMixGrad struct {
	// Operand names which input's gradient this op produces ("a" or "b").
	Operand string
}

// Name implements ops.Op.
func (g GatedMixGrad) Name() string { return "GatedMixGrad_" + g.Operand }

// InferShapes implements ops.Op.
func (GatedMixGrad) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if len(in) != 2 || !in[0].Equal(in[1]) {
		return nil, fmt.Errorf("GatedMixGrad wants two equal shapes, got %v", in)
	}
	return []tensor.Shape{in[0]}, nil
}

// Algorithms implements ops.Op.
func (GatedMixGrad) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []ops.Algorithm) []ops.Algorithm {
	bytes := int64(0)
	if len(in) == 2 {
		bytes = 3 * in[0].Elems() * 4
	}
	return append(dst, ops.Algorithm{Name: "elementwise", Workspace: 0, Duration: dev.MemoryTime(bytes)})
}

// init registers GatedMix's gradient rule with the autodiff — the hook a
// framework extension would use. The backward consumes both forward
// inputs, giving Capuchin the long-gap feature-map reuse it thrives on.
func init() {
	graph.RegisterGradient("GatedMix", func(gc *graph.GradientContext, n *graph.Node, dys []*tensor.Tensor) error {
		dy := dys[0]
		a, b := n.Inputs[0], n.Inputs[1]
		if gc.NeedsGradient(a) {
			gc.AddGradient(a, gc.Emit("grad/"+n.ID+"/a", GatedMixGrad{Operand: "a"}, b, dy))
		}
		if gc.NeedsGradient(b) {
			gc.AddGradient(b, gc.Emit("grad/"+n.ID+"/b", GatedMixGrad{Operand: "b"}, a, dy))
		}
		return nil
	})
}

// buildGatedNet assembles a conv-free residual tower of dense layers and
// GatedMix units.
func buildGatedNet(batch int64) (*graph.Graph, error) {
	const width, depth = 2048, 14
	b := graph.NewBuilder("gatednet")
	x := b.Input("data", tensor.Shape{batch, width}, tensor.Float32)
	labels := b.Input("labels", tensor.Shape{batch, 100}, tensor.Float32)

	h := x
	for i := 0; i < depth; i++ {
		wa := b.Variable(fmt.Sprintf("l%d_wa", i), tensor.Shape{width, width})
		wb := b.Variable(fmt.Sprintf("l%d_wb", i), tensor.Shape{width, width})
		a := b.Apply1(fmt.Sprintf("l%d_a", i), ops.MatMul{}, h, wa)
		gate := b.Apply1(fmt.Sprintf("l%d_b", i), ops.MatMul{}, h, wb)
		// Forward custom op, with a manually-registered backward: GatedMix
		// grads reduce to elementwise ops over the saved activations.
		mixed := b.Apply1(fmt.Sprintf("l%d_mix", i), GatedMix{}, a, gate)
		h = b.Apply1(fmt.Sprintf("l%d_res", i), ops.Add, mixed, h)
	}
	wOut := b.Variable("head_w", tensor.Shape{width, 100})
	logits := b.Apply1("head", ops.MatMul{}, h, wOut)
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, logits, labels)
	return b.Build(loss, graph.BuildOptions{})
}

func main() {
	const batch = 2048
	dev := hw.P100().WithMemory(1 * hw.GiB)

	run := func(policy exec.Policy, label string) {
		g, err := buildGatedNet(batch)
		if err != nil {
			log.Fatal(err)
		}
		s, err := exec.NewSession(g, exec.Config{Device: dev, Policy: policy, CollectiveRecompute: true})
		if err != nil {
			log.Fatal(err)
		}
		stats, err := s.Run(3)
		switch {
		case errors.Is(err, exec.ErrIterationOOM):
			fmt.Printf("%-28s OOM — cannot run batch %d on 1 GiB\n", label, batch)
		case err != nil:
			log.Fatal(err)
		default:
			last := stats[len(stats)-1]
			fmt.Printf("%-28s %.1f samples/s, swapped %d MB, recomputed %d tensors\n",
				label, last.Throughput(batch), last.SwapOutBytes>>20, last.RecomputeCount)
		}
	}

	fmt.Printf("gated residual network (custom GatedMix op, no convolutions), batch %d, 1 GiB\n\n", batch)
	run(exec.NullPolicy{}, "framework (no policy):")
	run(core.New(core.Options{}), "capuchin (graph-agnostic):")
	fmt.Println("\nvDNN finds nothing to offload here: its static rule targets convolution")
	fmt.Println("inputs, and this network has none — the paper's §3.1 critique in action.")
}
