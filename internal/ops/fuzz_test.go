package ops

import (
	"testing"

	"capuchin/internal/tensor"
)

// FuzzConvShapeInference checks that convolution shape inference never
// panics and never reports negative output dimensions or FLOPs, for
// arbitrary attribute and shape combinations.
func FuzzConvShapeInference(f *testing.F) {
	f.Add(int64(1), int64(1), int64(0), int64(0), uint8(8), uint8(3), uint8(64), uint8(3))
	f.Add(int64(2), int64(2), int64(3), int64(3), uint8(32), uint8(3), uint8(224), uint8(7))
	f.Add(int64(7), int64(1), int64(100), int64(0), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, sh, sw, ph, pw int64, n, c, hwdim, k uint8) {
		if sh <= 0 || sw <= 0 || sh > 1<<16 || sw > 1<<16 || ph < 0 || pw < 0 || ph > 1<<16 || pw > 1<<16 {
			t.Skip()
		}
		x := tensor.Shape{int64(n%16) + 1, int64(c%8) + 1, int64(hwdim) + 1, int64(hwdim) + 1}
		w := tensor.Shape{int64(k%64) + 1, x[1], int64(k%8) + 1, int64(k%8) + 1}
		conv := Conv2D{StrideH: sh, StrideW: sw, PadH: ph, PadW: pw}
		out, err := conv.InferShapes([]tensor.Shape{x, w})
		if err != nil {
			return // invalid combination rejected, fine
		}
		for _, d := range out[0] {
			if d <= 0 {
				t.Fatalf("non-positive output dim in %v for x=%v w=%v conv=%+v", out[0], x, w, conv)
			}
		}
		if conv.flops([]tensor.Shape{x, w}) < 0 {
			t.Fatal("negative FLOPs")
		}
		for _, a := range conv.Algorithms(dev, []tensor.Shape{x, w}, nil) {
			if a.Duration < 0 || a.Workspace < 0 {
				t.Fatalf("negative cost in algorithm %+v", a)
			}
		}
	})
}

// FuzzMatMulShapeInference does the same for matrix multiplication,
// including the transpose variants.
func FuzzMatMulShapeInference(f *testing.F) {
	f.Add(uint8(8), uint8(16), uint8(16), uint8(4), false, false)
	f.Add(uint8(128), uint8(64), uint8(64), uint8(1), true, false)
	f.Add(uint8(1), uint8(1), uint8(2), uint8(3), false, true)
	f.Fuzz(func(t *testing.T, m, k, k2, n uint8, ta, tb bool) {
		a := tensor.Shape{int64(m) + 1, int64(k) + 1}
		b := tensor.Shape{int64(k2) + 1, int64(n) + 1}
		mm := MatMul{TransposeA: ta, TransposeB: tb}
		out, err := mm.InferShapes([]tensor.Shape{a, b})
		if err != nil {
			return
		}
		if len(out[0]) != 2 || out[0][0] <= 0 || out[0][1] <= 0 {
			t.Fatalf("bad output %v for a=%v b=%v ta=%v tb=%v", out[0], a, b, ta, tb)
		}
		if mm.flops([]tensor.Shape{a, b}) < 0 {
			t.Fatal("negative FLOPs")
		}
	})
}
