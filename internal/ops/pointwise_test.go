package ops

import (
	"testing"

	"capuchin/internal/tensor"
)

// TestPointwise holds every kind to one contract: its name; exactly its
// arity, else an error from InferShapes and the "invalid" launch-only
// algorithm; every input shaped like in[0], which is the output's shape;
// and a single zero-workspace algorithm streaming the kind's traffic.
func TestPointwise(t *testing.T) {
	x := tensor.Shape{8, 1024}
	other := tensor.Shape{8, 512}
	cases := []struct {
		op      Pointwise
		name    string
		arity   int
		algo    string
		traffic int64 // bytes moved, in multiples of in[0]'s size
	}{
		{ReLU, "ReLU", 1, "elementwise", 2},
		{ReLUGrad, "ReLUGrad", 2, "elementwise", 3},
		{GELU, "GELU", 1, "elementwise", 2},
		{GELUGrad, "GELUGrad", 2, "elementwise", 3},
		{Sigmoid, "Sigmoid", 1, "elementwise", 2},
		{SigmoidGrad, "SigmoidGrad", 2, "elementwise", 3},
		{Tanh, "Tanh", 1, "elementwise", 2},
		{TanhGrad, "TanhGrad", 2, "elementwise", 3},
		{Softmax, "Softmax", 1, "norm", 3},
		{SoftmaxGrad, "SoftmaxGrad", 2, "norm", 3},
		{Dropout, "Dropout", 1, "elementwise", 2},
		{DropoutGrad, "DropoutGrad", 1, "elementwise", 2},
		{Add, "Add", 2, "elementwise", 3},
		{Sub, "Sub", 2, "elementwise", 3},
		{Mul, "Mul", 2, "elementwise", 3},
		{Neg, "Neg", 1, "elementwise", 2},
	}
	if len(cases) != len(pointwiseKinds) {
		t.Fatalf("%d cases for %d kinds", len(cases), len(pointwiseKinds))
	}
	for _, c := range cases {
		if c.op.Name() != c.name {
			t.Errorf("%d: Name = %q, want %q", c.op, c.op.Name(), c.name)
		}
		in := make([]tensor.Shape, c.arity)
		for i := range in {
			in[i] = x
		}
		out, err := c.op.InferShapes(in)
		if err != nil || len(out) != 1 || !out[0].Equal(x) {
			t.Errorf("%s: InferShapes = %v, %v; want [%v]", c.name, out, err, x)
		}
		algos := c.op.Algorithms(dev, in, nil)
		want := Algorithm{Name: c.algo, Duration: dev.MemoryTime(c.traffic * bytesOf(x))}
		if len(algos) != 1 || algos[0] != want {
			t.Errorf("%s: Algorithms = %v, want [%v]", c.name, algos, want)
		}
		for _, bad := range [][]tensor.Shape{in[:c.arity-1], append(in[:c.arity:c.arity], x)} {
			if _, err := c.op.InferShapes(bad); err == nil {
				t.Errorf("%s: %d inputs accepted", c.name, len(bad))
			}
			invalid := Algorithm{Name: "invalid", Duration: dev.KernelLaunch}
			if algos := c.op.Algorithms(dev, bad, nil); len(algos) != 1 || algos[0] != invalid {
				t.Errorf("%s: Algorithms at %d inputs = %v, want [%v]", c.name, len(bad), algos, invalid)
			}
		}
		if c.arity == 2 {
			if _, err := c.op.InferShapes(shapes(x, other)); err == nil {
				t.Errorf("%s: mismatched inputs %v, %v accepted", c.name, x, other)
			}
		}
	}
}

func TestActivationShapes(t *testing.T) {
	x := tensor.Shape{8, 1024}
	for _, op := range []Op{Sigmoid, Tanh} {
		out, err := op.InferShapes(shapes(x))
		if err != nil {
			t.Fatalf("%s: %v", op.Name(), err)
		}
		if !out[0].Equal(x) {
			t.Errorf("%s output = %v", op.Name(), out[0])
		}
	}
	for _, op := range []Op{SigmoidGrad, TanhGrad} {
		out, err := op.InferShapes(shapes(x, x))
		if err != nil {
			t.Fatalf("%s: %v", op.Name(), err)
		}
		if !out[0].Equal(x) {
			t.Errorf("%s output = %v", op.Name(), out[0])
		}
	}
	if o2, err := Sub.InferShapes(shapes(x, x)); err != nil || !o2[0].Equal(x) {
		t.Errorf("Sub: %v %v", o2, err)
	}
	if o1, err := Neg.InferShapes(shapes(x)); err != nil || !o1[0].Equal(x) {
		t.Errorf("Neg: %v %v", o1, err)
	}
	out, err := Mul.InferShapes(shapes(x, x))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(x) {
		t.Errorf("Mul output = %v", out[0])
	}
	if _, err := Mul.InferShapes(shapes(x, tensor.Shape{8, 512})); err == nil {
		t.Error("mismatched Mul accepted")
	}
}

// TestActivationAlgorithmContract: each activation-path op offers a
// zero-workspace fallback that takes positive time.
func TestActivationAlgorithmContract(t *testing.T) {
	x := tensor.Shape{8, 1024}
	cases := []struct {
		op Op
		in []tensor.Shape
	}{
		{Sigmoid, shapes(x)},
		{SigmoidGrad, shapes(x, x)},
		{Tanh, shapes(x)},
		{TanhGrad, shapes(x, x)},
		{Mul, shapes(x, x)},
		{Sub, shapes(x, x)},
		{Neg, shapes(x)},
	}
	for _, c := range cases {
		algos := c.op.Algorithms(dev, c.in, nil)
		if len(algos) == 0 || algos[len(algos)-1].Workspace != 0 {
			t.Errorf("%s: bad algorithm list %v", c.op.Name(), algos)
		}
		for _, a := range algos {
			if a.Duration <= 0 {
				t.Errorf("%s: %s has non-positive duration %v", c.op.Name(), a.Name, a.Duration)
			}
		}
	}
}
