package graph

import (
	"testing"

	"capuchin/internal/hw"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// squareOp is a custom elementwise operator for registry tests.
type squareOp struct{}

func (squareOp) Name() string { return "Square" }

func (squareOp) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	return []tensor.Shape{in[0]}, nil
}

func (squareOp) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []ops.Algorithm) []ops.Algorithm {
	return append(dst, ops.Algorithm{Name: "elementwise", Duration: dev.MemoryTime(2 * in[0].Elems() * 4)})
}

// squareGrad computes dx = 2*x*dy from [x, dy].
type squareGrad struct{}

func (squareGrad) Name() string { return "SquareGrad" }

func (squareGrad) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	return []tensor.Shape{in[0]}, nil
}

func (squareGrad) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []ops.Algorithm) []ops.Algorithm {
	return append(dst, ops.Algorithm{Name: "elementwise", Duration: dev.MemoryTime(3 * in[0].Elems() * 4)})
}

func TestRegisterGradientCustomOp(t *testing.T) {
	RegisterGradient("Square", func(gc *GradientContext, n *Node, dys []*tensor.Tensor) error {
		if gc.NeedsGradient(n.Inputs[0]) {
			dx := gc.Emit("grad/"+n.ID, squareGrad{}, n.Inputs[0], dys[0])
			gc.AddGradient(n.Inputs[0], dx)
		}
		return nil
	})

	b := NewBuilder("custom")
	x := b.Input("data", tensor.Shape{4, 8}, tensor.Float32)
	labels := b.Input("labels", tensor.Shape{4, 8}, tensor.Float32)
	w := b.Variable("w", tensor.Shape{8, 8})
	h := b.Apply1("fc", ops.MatMul{}, x, w)
	h = b.Apply1("sq", squareOp{}, h)
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, h, labels)
	g, err := b.Build(loss, BuildOptions{})
	if err != nil {
		t.Fatalf("custom-op autodiff failed: %v", err)
	}
	// The registered rule must have emitted a SquareGrad node consuming
	// the forward input.
	var found *Node
	for _, n := range g.Nodes {
		if n.Op.Name() == "SquareGrad" {
			found = n
		}
	}
	if found == nil {
		t.Fatal("no SquareGrad node emitted")
	}
	if found.Phase != Backward {
		t.Error("custom gradient node not in backward phase")
	}
	if found.Inputs[0].ID != "fc:0" {
		t.Errorf("SquareGrad consumes %s, want the forward input fc:0", found.Inputs[0].ID)
	}
	if !found.Outputs[0].Gradient {
		t.Error("custom gradient output not marked Gradient")
	}
	// The weight still receives its gradient through the custom op.
	if got := countByPhase(g)[Update]; got != 1 {
		t.Errorf("updates = %d, want 1", got)
	}
}

func TestUnregisteredCustomOpFails(t *testing.T) {
	type mystery = squareOp // same shape behaviour, different name via wrapper
	_ = mystery{}
	b := NewBuilder("mystery")
	x := b.Input("data", tensor.Shape{4}, tensor.Float32)
	labelShape := tensor.Shape{4, 4}
	labels := b.Input("labels", labelShape, tensor.Float32)
	w := b.Variable("w", tensor.Shape{4, 4})
	h0 := b.Apply1("up", ops.MatMul{}, b.Apply1("reshape", ops.Reshape{To: tensor.Shape{1, 4}}, x), w)
	h := b.Apply1("odd", unregisteredOp{}, h0)
	pad := b.Apply1("grow", ops.Pad{Before: []int64{0, 0}, After: []int64{3, 0}}, h)
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, pad, labels)
	if _, err := b.Build(loss, BuildOptions{}); err == nil {
		t.Fatal("autodiff accepted an op with no gradient rule")
	}
}

type unregisteredOp struct{ squareOp }

func (unregisteredOp) Name() string { return "Unregistered" }
