package ops

import (
	"slices"
	"testing"
	"testing/quick"

	"capuchin/internal/tensor"
)

func TestMatMulShapes(t *testing.T) {
	m := MatMul{}
	out, err := m.InferShapes(shapes(tensor.Shape{128, 768}, tensor.Shape{768, 3072}))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(tensor.Shape{128, 3072}) {
		t.Errorf("output = %v", out[0])
	}
}

func TestMatMulBatched(t *testing.T) {
	m := MatMul{}
	// Attention scores: [B,H,S,D] x [B,H,D,S] -> [B,H,S,S].
	out, err := m.InferShapes(shapes(tensor.Shape{8, 12, 128, 64}, tensor.Shape{8, 12, 64, 128}))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(tensor.Shape{8, 12, 128, 128}) {
		t.Errorf("output = %v", out[0])
	}
	want := 2.0 * 8 * 12 * 128 * 64 * 128
	if got := m.flops(shapes(tensor.Shape{8, 12, 128, 64}, tensor.Shape{8, 12, 64, 128})); got != want {
		t.Errorf("FLOPs = %g, want %g", got, want)
	}
}

func TestMatMulTranspose(t *testing.T) {
	// dW = A^T x dY: [M,K]^T x [M,N] -> [K,N].
	m := MatMul{TransposeA: true}
	out, err := m.InferShapes(shapes(tensor.Shape{128, 768}, tensor.Shape{128, 3072}))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(tensor.Shape{768, 3072}) {
		t.Errorf("output = %v", out[0])
	}
	// dA = dY x B^T: [M,N] x [K,N]^T -> [M,K].
	m2 := MatMul{TransposeB: true}
	out, err = m2.InferShapes(shapes(tensor.Shape{128, 3072}, tensor.Shape{768, 3072}))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(tensor.Shape{128, 768}) {
		t.Errorf("output = %v", out[0])
	}
}

func TestMatMulErrors(t *testing.T) {
	m := MatMul{}
	bad := [][]tensor.Shape{
		{{128, 768}},                 // one operand
		{{128, 768}, {512, 3072}},    // inner mismatch
		{{128}, {128, 64}},           // 1-D operand
		{{2, 128, 64}, {3, 64, 128}}, // batch mismatch
	}
	for i, in := range bad {
		if _, err := m.InferShapes(in); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestElementwiseShapes(t *testing.T) {
	x := tensor.Shape{8, 64, 56, 56}
	for _, op := range []Op{ReLU, GELU, Dropout, DropoutGrad} {
		out, err := op.InferShapes(shapes(x))
		if err != nil {
			t.Fatalf("%s: %v", op.Name(), err)
		}
		if !out[0].Equal(x) {
			t.Errorf("%s output = %v", op.Name(), out[0])
		}
	}
}

func TestAddShapes(t *testing.T) {
	x := tensor.Shape{8, 256, 56, 56}
	out, err := Add.InferShapes(shapes(x, x))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(x) {
		t.Errorf("output = %v", out[0])
	}
	if _, err := Add.InferShapes(shapes(x, tensor.Shape{8, 1, 56, 56})); err == nil {
		t.Error("mismatched Add accepted")
	}
}

func TestAddNShapes(t *testing.T) {
	x := tensor.Shape{4, 4}
	out, err := AddN{}.InferShapes(shapes(x, x, x))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(x) {
		t.Errorf("output = %v", out[0])
	}
	if _, err := (AddN{}).InferShapes(nil); err == nil {
		t.Error("empty AddN accepted")
	}
}

func TestBiasAddShapes(t *testing.T) {
	// NCHW: channel is dim 1.
	out, err := BiasAdd{}.InferShapes(shapes(tensor.Shape{8, 64, 56, 56}, tensor.Shape{64}))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(tensor.Shape{8, 64, 56, 56}) {
		t.Errorf("output = %v", out[0])
	}
	// Sequence tensor: channel is last dim.
	if _, err := (BiasAdd{}).InferShapes(shapes(tensor.Shape{8, 128, 768}, tensor.Shape{768})); err != nil {
		t.Errorf("sequence BiasAdd rejected: %v", err)
	}
	if _, err := (BiasAdd{}).InferShapes(shapes(tensor.Shape{8, 64, 56, 56}, tensor.Shape{32})); err == nil {
		t.Error("mismatched bias accepted")
	}
	grad, err := BiasAddGrad{}.InferShapes(shapes(tensor.Shape{8, 64, 56, 56}))
	if err != nil {
		t.Fatal(err)
	}
	if !grad[0].Equal(tensor.Shape{64}) {
		t.Errorf("bias grad = %v, want [64]", grad[0])
	}
}

func TestNormShapes(t *testing.T) {
	x := tensor.Shape{8, 64, 56, 56}
	params := tensor.Shape{64}
	out, err := BatchNorm{}.InferShapes(shapes(x, params, params))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(x) {
		t.Errorf("BN output = %v", out[0])
	}
	grads, err := BatchNormGrad{}.InferShapes(shapes(x, params, x))
	if err != nil {
		t.Fatal(err)
	}
	if len(grads) != 3 || !grads[0].Equal(x) || !grads[1].Equal(params) || !grads[2].Equal(params) {
		t.Errorf("BN grads = %v", grads)
	}
	if _, err := (BatchNorm{}).InferShapes(shapes(x, tensor.Shape{32}, params)); err == nil {
		t.Error("mismatched BN params accepted")
	}

	seq := tensor.Shape{8, 128, 768}
	h := tensor.Shape{768}
	out, err = LayerNorm{}.InferShapes(shapes(seq, h, h))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(seq) {
		t.Errorf("LN output = %v", out[0])
	}
	grads, err = LayerNormGrad{}.InferShapes(shapes(seq, h, seq))
	if err != nil {
		t.Fatal(err)
	}
	if len(grads) != 3 || !grads[1].Equal(h) {
		t.Errorf("LN grads = %v", grads)
	}
}

func TestSoftmaxShapes(t *testing.T) {
	x := tensor.Shape{8, 12, 128, 128}
	out, err := Softmax.InferShapes(shapes(x))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(x) {
		t.Errorf("output = %v", out[0])
	}
	out, err = SoftmaxGrad.InferShapes(shapes(x, x))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(x) {
		t.Errorf("grad output = %v", out[0])
	}
}

func TestPoolShapes(t *testing.T) {
	p := Pool{Kind: MaxPoolKind, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	out, err := p.InferShapes(shapes(tensor.Shape{8, 64, 112, 112}))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(tensor.Shape{8, 64, 56, 56}) {
		t.Errorf("output = %v", out[0])
	}
	if p.Name() != "MaxPool" {
		t.Errorf("Name = %s", p.Name())
	}

	// Global average pooling: kernel 0 pools the full extent.
	g := Pool{Kind: AvgPoolKind}
	out, err = g.InferShapes(shapes(tensor.Shape{8, 2048, 7, 7}))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(tensor.Shape{8, 2048, 1, 1}) {
		t.Errorf("global pool output = %v", out[0])
	}
	if g.Name() != "AvgPool" {
		t.Errorf("Name = %s", g.Name())
	}

	pg := PoolGrad{Pool: p}
	x := tensor.Shape{8, 64, 112, 112}
	y := tensor.Shape{8, 64, 56, 56}
	out, err = pg.InferShapes(shapes(x, y, y))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(x) {
		t.Errorf("pool grad output = %v", out[0])
	}
	if pg.Name() != "MaxPoolGrad" {
		t.Errorf("Name = %s", pg.Name())
	}
}

func TestConcatSliceShapes(t *testing.T) {
	c := Concat{Dim: 1}
	out, err := c.InferShapes(shapes(
		tensor.Shape{8, 64, 35, 35},
		tensor.Shape{8, 96, 35, 35},
		tensor.Shape{8, 32, 35, 35},
	))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(tensor.Shape{8, 192, 35, 35}) {
		t.Errorf("concat output = %v", out[0])
	}
	if _, err := c.InferShapes(shapes(tensor.Shape{8, 64, 35, 35}, tensor.Shape{8, 96, 17, 17})); err == nil {
		t.Error("mismatched concat accepted")
	}

	s := Slice{Dim: 1, Start: 64, Length: 96}
	out, err = s.InferShapes(shapes(tensor.Shape{8, 192, 35, 35}))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(tensor.Shape{8, 96, 35, 35}) {
		t.Errorf("slice output = %v", out[0])
	}
	if _, err := (Slice{Dim: 1, Start: 128, Length: 96}).InferShapes(shapes(tensor.Shape{8, 192, 35, 35})); err == nil {
		t.Error("out-of-range slice accepted")
	}
}

func TestReshapeTranspose(t *testing.T) {
	r := Reshape{To: tensor.Shape{8, 12, 128, 64}}
	out, err := r.InferShapes(shapes(tensor.Shape{8, 128, 768}))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(r.To) {
		t.Errorf("reshape output = %v", out[0])
	}
	if _, err := (Reshape{To: tensor.Shape{9}}).InferShapes(shapes(tensor.Shape{8})); err == nil {
		t.Error("element-count mismatch accepted")
	}

	tr := Transpose{Perm: []int{0, 2, 1, 3}}
	out, err = tr.InferShapes(shapes(tensor.Shape{8, 128, 12, 64}))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(tensor.Shape{8, 12, 128, 64}) {
		t.Errorf("transpose output = %v", out[0])
	}
	if _, err := (Transpose{Perm: []int{0, 0, 1, 2}}).InferShapes(shapes(tensor.Shape{8, 128, 12, 64})); err == nil {
		t.Error("duplicate perm accepted")
	}
}

func TestPadShapes(t *testing.T) {
	p := Pad{Before: []int64{0, 0, 1, 1}, After: []int64{0, 0, 1, 1}}
	out, err := p.InferShapes(shapes(tensor.Shape{8, 64, 35, 35}))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(tensor.Shape{8, 64, 37, 37}) {
		t.Errorf("pad output = %v", out[0])
	}
}

func TestEmbeddingShapes(t *testing.T) {
	out, err := Embedding{}.InferShapes(shapes(tensor.Shape{8, 128}, tensor.Shape{30522, 768}))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(tensor.Shape{8, 128, 768}) {
		t.Errorf("embedding output = %v", out[0])
	}
	g := EmbeddingGrad{TableShape: tensor.Shape{30522, 768}}
	out, err = g.InferShapes(shapes(tensor.Shape{8, 128}, tensor.Shape{8, 128, 768}))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(tensor.Shape{30522, 768}) {
		t.Errorf("embedding grad = %v", out[0])
	}
}

func TestCrossEntropyShapes(t *testing.T) {
	out, err := SoftmaxCrossEntropy{}.InferShapes(shapes(tensor.Shape{32, 1000}, tensor.Shape{32, 1000}))
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0]) != 0 {
		t.Errorf("loss shape = %v, want scalar", out[0])
	}
	g, err := SoftmaxCrossEntropyGrad{}.InferShapes(shapes(tensor.Shape{32, 1000}, tensor.Shape{32, 1000}, tensor.Shape{}))
	if err != nil {
		t.Fatal(err)
	}
	if !g[0].Equal(tensor.Shape{32, 1000}) {
		t.Errorf("dlogits = %v", g[0])
	}
}

func TestSourceOps(t *testing.T) {
	in := Input{Shape: tensor.Shape{32, 3, 224, 224}, DType: tensor.Float32}
	out, err := in.InferShapes(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(in.Shape) {
		t.Errorf("input output = %v", out[0])
	}
	if _, err := in.InferShapes(shapes(tensor.Shape{1})); err == nil {
		t.Error("Input with inputs accepted")
	}

	v := Variable{Shape: tensor.Shape{64, 3, 7, 7}}
	out, err = v.InferShapes(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(v.Shape) {
		t.Errorf("variable output = %v", out[0])
	}
	if algos := v.Algorithms(dev, nil, nil); algos[0].Duration != 0 {
		t.Error("Variable should cost nothing (pre-resident)")
	}

	a := ApplyGradient{}
	out, err = a.InferShapes(shapes(tensor.Shape{64}, tensor.Shape{64}))
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0]) != 0 {
		t.Errorf("apply output = %v, want scalar control edge", out[0])
	}
	if _, err := a.InferShapes(shapes(tensor.Shape{64}, tensor.Shape{32})); err == nil {
		t.Error("mismatched ApplyGradient accepted")
	}
}

// Every op must produce a non-empty algorithm list whose last entry needs
// no workspace, on valid inputs. It appends that list to dst and, when
// dst has room, allocates nothing: a session keeps every node's list in
// one flat slice that a recycled session refills.
func TestAllOpsAlgorithmContract(t *testing.T) {
	x := tensor.Shape{8, 64, 56, 56}
	c64 := tensor.Shape{64}
	seq := tensor.Shape{8, 128, 768}
	h := tensor.Shape{768}
	cases := []struct {
		op Op
		in []tensor.Shape
	}{
		{Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, shapes(x, tensor.Shape{64, 64, 3, 3})},
		{Conv2DBackpropInput{Conv: Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, InputShape: x}, shapes(tensor.Shape{64, 64, 3, 3}, x)},
		{Conv2DBackpropFilter{Conv: Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, FilterShape: tensor.Shape{64, 64, 3, 3}}, shapes(x, x)},
		{MatMul{}, shapes(tensor.Shape{128, 768}, tensor.Shape{768, 768})},
		{ReLU, shapes(x)},
		{ReLUGrad, shapes(x, x)},
		{GELU, shapes(seq)},
		{GELUGrad, shapes(seq, seq)},
		{Add, shapes(x, x)},
		{AddN{}, shapes(x, x, x)},
		{BiasAdd{}, shapes(x, c64)},
		{BiasAddGrad{}, shapes(x)},
		{Dropout, shapes(seq)},
		{DropoutGrad, shapes(seq)},
		{Reshape{To: tensor.Shape{8, 64 * 56 * 56}}, shapes(x)},
		{Transpose{Perm: []int{0, 2, 1}}, shapes(seq)},
		{Pad{Before: []int64{0, 0, 1, 1}, After: []int64{0, 0, 1, 1}}, shapes(x)},
		{Slice{Dim: 1, Start: 0, Length: 32}, shapes(x)},
		{Concat{Dim: 1}, shapes(x, x)},
		{BatchNorm{}, shapes(x, c64, c64)},
		{BatchNormGrad{}, shapes(x, c64, x)},
		{LayerNorm{}, shapes(seq, h, h)},
		{LayerNormGrad{}, shapes(seq, h, seq)},
		{Softmax, shapes(seq)},
		{SoftmaxGrad, shapes(seq, seq)},
		{Pool{Kind: MaxPoolKind, KH: 2, KW: 2, StrideH: 2, StrideW: 2}, shapes(x)},
		{PoolGrad{Pool: Pool{Kind: MaxPoolKind, KH: 2, KW: 2, StrideH: 2, StrideW: 2}}, shapes(x, tensor.Shape{8, 64, 28, 28}, tensor.Shape{8, 64, 28, 28})},
		{Embedding{}, shapes(tensor.Shape{8, 128}, tensor.Shape{30522, 768})},
		{EmbeddingGrad{TableShape: tensor.Shape{30522, 768}}, shapes(tensor.Shape{8, 128}, seq)},
		{SoftmaxCrossEntropy{}, shapes(tensor.Shape{32, 1000}, tensor.Shape{32, 1000})},
		{SoftmaxCrossEntropyGrad{}, shapes(tensor.Shape{32, 1000}, tensor.Shape{32, 1000}, tensor.Shape{})},
		{Input{Shape: x, DType: tensor.Float32}, nil},
		{Variable{Shape: c64}, nil},
		{ApplyGradient{}, shapes(c64, c64)},
		{ApplyGradient{Rule: Adam}, shapes(c64, c64, c64, c64)},
		{Sigmoid, shapes(seq)},
		{SigmoidGrad, shapes(seq, seq)},
		{Tanh, shapes(seq)},
		{TanhGrad, shapes(seq, seq)},
		{Mul, shapes(seq, seq)},
		{Sub, shapes(seq, seq)},
		{Neg, shapes(seq)},
		{DepthwiseConv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, shapes(x, tensor.Shape{64, 1, 3, 3})},
		{DepthwiseBackpropInput{Conv: DepthwiseConv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, InputShape: x}, shapes(tensor.Shape{64, 1, 3, 3}, x)},
		{DepthwiseBackpropFilter{Conv: DepthwiseConv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, FilterShape: tensor.Shape{64, 1, 3, 3}}, shapes(x, x)},
		{FusedBias{Inner: Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}}, shapes(x, tensor.Shape{64, 64, 3, 3}, c64)},
		{FusedBias{Inner: MatMul{}}, shapes(tensor.Shape{128, 768}, tensor.Shape{768, 64}, c64)},
	}
	for _, c := range cases {
		if _, err := c.op.InferShapes(c.in); err != nil {
			t.Errorf("%s: InferShapes failed: %v", c.op.Name(), err)
			continue
		}
		algos := c.op.Algorithms(dev, c.in, nil)
		if len(algos) == 0 {
			t.Errorf("%s: no algorithms", c.op.Name())
			continue
		}
		if algos[len(algos)-1].Workspace != 0 {
			t.Errorf("%s: fallback algorithm needs workspace", c.op.Name())
		}
		for _, a := range algos {
			if a.Duration < 0 {
				t.Errorf("%s/%s: negative duration", c.op.Name(), a.Name)
			}
		}
		if f, ok := c.op.(flopper); ok && f.flops(c.in) < 0 {
			t.Errorf("%s: negative FLOPs", c.op.Name())
		}
		if c.op.Name() == "" {
			t.Error("empty op name")
		}
		head := Algorithm{Name: "head"}
		got := c.op.Algorithms(dev, c.in, append(make([]Algorithm, 0, 8), head))
		if got[0] != head || !slices.Equal(got[1:], algos) {
			t.Errorf("%s: Algorithms(dst) = %v, want %v after dst's entry", c.op.Name(), got, algos)
		}
		if n := testing.AllocsPerRun(10, func() { got = c.op.Algorithms(dev, c.in, got[:0]) }); n != 0 {
			t.Errorf("%s: Algorithms allocated %.0f times with room in dst, want 0", c.op.Name(), n)
		}
	}
}

func TestFusedBiasBehaviour(t *testing.T) {
	inner := Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	f := FusedBias{Inner: inner}
	if f.Name() != "Conv2D+BiasAdd" {
		t.Errorf("Name = %s", f.Name())
	}
	x := tensor.Shape{8, 64, 56, 56}
	w := tensor.Shape{64, 64, 3, 3}
	bias := tensor.Shape{64}
	out, err := f.InferShapes(shapes(x, w, bias))
	if err != nil {
		t.Fatal(err)
	}
	innerOut, _ := inner.InferShapes(shapes(x, w))
	if !out[0].Equal(innerOut[0]) {
		t.Errorf("fused output %v != inner output %v", out[0], innerOut[0])
	}
	// Algorithms ride along with the inner kernel.
	fa := f.Algorithms(dev, shapes(x, w, bias), nil)
	ia := inner.Algorithms(dev, shapes(x, w), nil)
	if len(fa) != len(ia) || fa[0].Name != ia[0].Name {
		t.Errorf("fused algorithms differ from inner: %v vs %v", fa, ia)
	}
	// Too few inputs rejected.
	if _, err := f.InferShapes(shapes(x)); err == nil {
		t.Error("single-input FusedBias accepted")
	}
}

func TestOptimizerRules(t *testing.T) {
	if SGD.StateSlots() != 0 || Momentum.StateSlots() != 1 || Adam.StateSlots() != 2 {
		t.Error("state slot counts wrong")
	}
	if SGD.String() != "sgd" || Adam.String() != "adam" {
		t.Error("optimizer names wrong")
	}
	// Legacy Momentum flag resolves to the Momentum rule.
	if (ApplyGradient{Momentum: true}).Effective() != Momentum {
		t.Error("legacy Momentum flag ignored")
	}
	if (ApplyGradient{Rule: Adam}).Effective() != Adam {
		t.Error("Adam rule ignored")
	}
	// Adam accepts [var, grad, m, v].
	s := tensor.Shape{64}
	if _, err := (ApplyGradient{Rule: Adam}).InferShapes(shapes(s, s, s, s)); err != nil {
		t.Errorf("Adam arity rejected: %v", err)
	}
	if _, err := (ApplyGradient{Rule: Adam}).InferShapes(shapes(s, s, s)); err == nil {
		t.Error("Adam with one state slot accepted")
	}
	// Update costs rise with optimizer statefulness.
	sgdT := (ApplyGradient{}).Algorithms(dev, shapes(s, s), nil)[0].Duration
	adamT := (ApplyGradient{Rule: Adam}).Algorithms(dev, shapes(s, s, s, s), nil)[0].Duration
	if adamT <= sgdT {
		t.Error("Adam update not costlier than SGD")
	}
}

// Property: shape inference never panics and, on success, yields
// non-negative-dimension outputs, across randomized valid-rank inputs.
func TestShapeInferenceRobustnessProperty(t *testing.T) {
	mk := func(dims []uint16, rank int) tensor.Shape {
		s := make(tensor.Shape, rank)
		for i := range s {
			s[i] = int64(dims[i%len(dims)]%64) + 1
		}
		return s
	}
	f := func(dims []uint16, k uint8) bool {
		if len(dims) == 0 {
			return true
		}
		x4 := mk(dims, 4)
		x2 := mk(dims, 2)
		c := mk(dims, 1)
		candidates := []struct {
			op Op
			in []tensor.Shape
		}{
			{Conv2D{StrideH: 1 + int64(k%3), StrideW: 1, PadH: int64(k % 4), PadW: 0}, shapes(x4, mk(dims, 4))},
			{MatMul{TransposeA: k%2 == 0}, shapes(x2, mk(dims, 2))},
			{Pool{Kind: MaxPoolKind, KH: 1 + int64(k%5), KW: 2, StrideH: 1, StrideW: 1}, shapes(x4)},
			{BatchNorm{}, shapes(x4, c, c)},
			{Concat{Dim: int(k % 4)}, shapes(x4, mk(dims, 4))},
			{Slice{Dim: int(k % 4), Start: int64(k % 8), Length: 1 + int64(k%4)}, shapes(x4)},
			{DepthwiseConv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, shapes(x4, mk(dims, 4))},
		}
		for _, cand := range candidates {
			out, err := cand.op.InferShapes(cand.in) // must not panic
			if err != nil {
				continue
			}
			for _, s := range out {
				for _, d := range s {
					if d < 0 {
						return false
					}
				}
			}
			if f, ok := cand.op.(flopper); ok && f.flops(cand.in) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
