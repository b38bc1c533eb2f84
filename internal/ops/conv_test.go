package ops

import (
	"testing"

	"capuchin/internal/hw"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

var dev = hw.P100()

func shapes(ss ...tensor.Shape) []tensor.Shape { return ss }

// flopper is the FLOP count the compute-bound kernels feed their roofline.
type flopper interface{ flops([]tensor.Shape) float64 }

func TestConv2DShapes(t *testing.T) {
	c := Conv2D{StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}
	// ResNet stem: 224x224x3 -> 112x112x64 with 7x7/2 pad 3.
	out, err := c.InferShapes(shapes(
		tensor.Shape{32, 3, 224, 224},
		tensor.Shape{64, 3, 7, 7},
	))
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.Shape{32, 64, 112, 112}
	if !out[0].Equal(want) {
		t.Errorf("output = %v, want %v", out[0], want)
	}
}

func TestConv2DShapeErrors(t *testing.T) {
	c := Conv2D{StrideH: 1, StrideW: 1}
	cases := [][]tensor.Shape{
		{{32, 3, 224, 224}},                 // missing filter
		{{32, 3, 224}, {64, 3, 7, 7}},       // 3-D input
		{{32, 3, 224, 224}, {64, 16, 7, 7}}, // channel mismatch
		{{32, 3, 4, 4}, {64, 3, 7, 7}},      // kernel larger than input
	}
	for i, in := range cases {
		if _, err := c.InferShapes(in); err == nil {
			t.Errorf("case %d: invalid shapes accepted", i)
		}
	}
}

func TestConv2DFLOPs(t *testing.T) {
	c := Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	in := shapes(tensor.Shape{1, 64, 56, 56}, tensor.Shape{64, 64, 3, 3})
	// 2 * N*K*OH*OW*C*KH*KW
	want := 2.0 * 1 * 64 * 56 * 56 * 64 * 3 * 3
	if got := c.flops(in); got != want {
		t.Errorf("FLOPs = %g, want %g", got, want)
	}
}

func TestConv2DAlgorithmMenu(t *testing.T) {
	// A 3x3 stride-1 conv offers winograd, gemm and implicit-gemm.
	c := Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	in := shapes(tensor.Shape{32, 64, 56, 56}, tensor.Shape{64, 64, 3, 3})
	algos := c.Algorithms(dev, in, nil)
	if len(algos) != 3 {
		t.Fatalf("got %d algorithms, want 3", len(algos))
	}
	names := []string{"winograd", "gemm", "implicit-gemm"}
	for i, want := range names {
		if algos[i].Name != want {
			t.Errorf("algo %d = %s, want %s", i, algos[i].Name, want)
		}
	}
	// Sorted fastest first, last has zero workspace.
	for i := 1; i < len(algos); i++ {
		if algos[i].Duration < algos[i-1].Duration {
			t.Errorf("algorithms not sorted fastest-first: %v then %v", algos[i-1], algos[i])
		}
	}
	if algos[len(algos)-1].Workspace != 0 {
		t.Error("fallback algorithm requires workspace")
	}
	if algos[0].Workspace == 0 && algos[1].Workspace == 0 {
		t.Error("faster algorithms should require workspace")
	}
}

func TestConv2DNoWinogradForStride2(t *testing.T) {
	c := Conv2D{StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}
	in := shapes(tensor.Shape{32, 3, 224, 224}, tensor.Shape{64, 3, 7, 7})
	for _, a := range c.Algorithms(dev, in, nil) {
		if a.Name == "winograd" {
			t.Error("winograd offered for a 7x7 stride-2 convolution")
		}
	}
}

func TestConv2DBackpropShapes(t *testing.T) {
	conv := Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	xShape := tensor.Shape{8, 64, 56, 56}
	wShape := tensor.Shape{128, 64, 3, 3}
	yShapes, err := conv.InferShapes(shapes(xShape, wShape))
	if err != nil {
		t.Fatal(err)
	}
	dy := yShapes[0]

	bi := Conv2DBackpropInput{Conv: conv, InputShape: xShape}
	out, err := bi.InferShapes(shapes(wShape, dy))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(xShape) {
		t.Errorf("dx shape = %v, want %v", out[0], xShape)
	}

	bf := Conv2DBackpropFilter{Conv: conv, FilterShape: wShape}
	out, err = bf.InferShapes(shapes(xShape, dy))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(wShape) {
		t.Errorf("dw shape = %v, want %v", out[0], wShape)
	}

	// Backward FLOPs match forward (same MAC count).
	fw := conv.flops(shapes(xShape, wShape))
	if got := bi.flops(shapes(wShape, dy)); got != fw {
		t.Errorf("BackpropInput FLOPs = %g, want %g", got, fw)
	}
	if got := bf.flops(shapes(xShape, dy)); got != fw {
		t.Errorf("BackpropFilter FLOPs = %g, want %g", got, fw)
	}
}

func TestConvDurationScalesWithWork(t *testing.T) {
	c := Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	small := c.Algorithms(dev, shapes(tensor.Shape{8, 64, 28, 28}, tensor.Shape{64, 64, 3, 3}), nil)
	big := c.Algorithms(dev, shapes(tensor.Shape{64, 64, 56, 56}, tensor.Shape{64, 64, 3, 3}), nil)
	if big[0].Duration <= small[0].Duration {
		t.Error("duration did not grow with work")
	}
}

func TestConvTimeVariationMatchesFig2Scale(t *testing.T) {
	// Fig. 2: InceptionV3 conv layer times span roughly 474us..17.7ms
	// (about 37x) on the P100. Two representative extremes from the
	// network should land within an order of magnitude of that range.
	cheap := Conv2D{StrideH: 1, StrideW: 1}
	cheapIn := shapes(tensor.Shape{32, 192, 35, 35}, tensor.Shape{64, 192, 1, 1})
	expensive := Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	expensiveIn := shapes(tensor.Shape{32, 288, 35, 35}, tensor.Shape{384, 288, 3, 3})

	fast := cheap.Algorithms(dev, cheapIn, nil)[0].Duration
	slow := expensive.Algorithms(dev, expensiveIn, nil)[0].Duration
	if fast < 50*sim.Microsecond || fast > 3*sim.Millisecond {
		t.Errorf("cheap conv = %v, want sub-3ms (Fig. 2 scale)", fast)
	}
	if ratio := float64(slow) / float64(fast); ratio < 4 {
		t.Errorf("slow/fast ratio = %.1f, want clear variation (paper saw 37x across the net)", ratio)
	}
}

func TestOutSpatial(t *testing.T) {
	cases := []struct{ in, k, s, p, want int64 }{
		{224, 7, 2, 3, 112},
		{56, 3, 1, 1, 56},
		{56, 1, 1, 0, 56},
		{35, 3, 2, 0, 17},
	}
	for _, c := range cases {
		if got := outSpatial(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("outSpatial(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}
