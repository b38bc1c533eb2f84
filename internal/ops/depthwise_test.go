package ops

import (
	"testing"

	"capuchin/internal/tensor"
)

func TestDepthwiseShapes(t *testing.T) {
	c := DepthwiseConv2D{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	out, err := c.InferShapes(shapes(tensor.Shape{8, 32, 112, 112}, tensor.Shape{32, 1, 3, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(tensor.Shape{8, 32, 56, 56}) {
		t.Errorf("output = %v", out[0])
	}
	// Channel-count mismatch and non-depthwise filters rejected.
	if _, err := c.InferShapes(shapes(tensor.Shape{8, 32, 112, 112}, tensor.Shape{64, 1, 3, 3})); err == nil {
		t.Error("channel mismatch accepted")
	}
	if _, err := c.InferShapes(shapes(tensor.Shape{8, 32, 112, 112}, tensor.Shape{32, 2, 3, 3})); err == nil {
		t.Error("multiplier > 1 accepted")
	}

	bi := DepthwiseBackpropInput{Conv: c, InputShape: tensor.Shape{8, 32, 112, 112}}
	out, err = bi.InferShapes(shapes(tensor.Shape{32, 1, 3, 3}, tensor.Shape{8, 32, 56, 56}))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(tensor.Shape{8, 32, 112, 112}) {
		t.Errorf("dx = %v", out[0])
	}
	bf := DepthwiseBackpropFilter{Conv: c, FilterShape: tensor.Shape{32, 1, 3, 3}}
	out, err = bf.InferShapes(shapes(tensor.Shape{8, 32, 112, 112}, tensor.Shape{8, 32, 56, 56}))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(tensor.Shape{32, 1, 3, 3}) {
		t.Errorf("dw = %v", out[0])
	}
}

// A depthwise conv moves the same activations as a dense 3x3 conv but does
// ~C times less arithmetic (the duration ratio is checked on the MobileNet
// side, in internal/models).
func TestDepthwiseFLOPsVersusDense(t *testing.T) {
	dw := DepthwiseConv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	dense := Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x := tensor.Shape{8, 256, 28, 28}
	if r := dense.flops(shapes(x, tensor.Shape{256, 256, 3, 3})) / dw.flops(shapes(x, tensor.Shape{256, 1, 3, 3})); r != 256 {
		t.Errorf("dense/depthwise FLOP ratio = %g, want 256 (one filter per channel)", r)
	}
}
