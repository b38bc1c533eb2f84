package ops

import (
	"capuchin/internal/hw"
	"capuchin/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW input with OIHW filters.
type Conv2D struct {
	StrideH, StrideW int64
	PadH, PadW       int64
}

// Name implements Op.
func (Conv2D) Name() string { return "Conv2D" }

// outSpatial computes one output spatial dimension.
func outSpatial(in, k, stride, pad int64) int64 {
	return (in+2*pad-k)/stride + 1
}

// convDims extracts and validates the shapes of a convolution: x is
// [N,C,H,W], f is [K,C,KH,KW].
func (c Conv2D) convDims(x, f tensor.Shape) (n, ci, h, w, k, kh, kw, oh, ow int64, err error) {
	if len(x) != 4 || len(f) != 4 {
		return 0, 0, 0, 0, 0, 0, 0, 0, 0, shapeError("Conv2D", []tensor.Shape{x, f}, "want 4-D input and filter")
	}
	if x[1] != f[1] {
		return 0, 0, 0, 0, 0, 0, 0, 0, 0, shapeError("Conv2D", []tensor.Shape{x, f}, "channel mismatch: input %d, filter %d", x[1], f[1])
	}
	n, ci, h, w = x[0], x[1], x[2], x[3]
	k, kh, kw = f[0], f[2], f[3]
	oh = outSpatial(h, kh, c.StrideH, c.PadH)
	ow = outSpatial(w, kw, c.StrideW, c.PadW)
	if oh <= 0 || ow <= 0 {
		return 0, 0, 0, 0, 0, 0, 0, 0, 0, shapeError("Conv2D", []tensor.Shape{x, f}, "non-positive output %dx%d", oh, ow)
	}
	return n, ci, h, w, k, kh, kw, oh, ow, nil
}

// InferShapes implements Op.
func (c Conv2D) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("Conv2D", in, 2); err != nil {
		return nil, err
	}
	n, _, _, _, k, _, _, oh, ow, err := c.convDims(in[0], in[1])
	if err != nil {
		return nil, err
	}
	return []tensor.Shape{{n, k, oh, ow}}, nil
}

// flops is the convolution's work: 2*N*K*OH*OW*C*KH*KW multiply-accumulates.
func (c Conv2D) flops(in []tensor.Shape) float64 {
	if len(in) != 2 {
		return 0
	}
	return c.flopsOf(in[0], in[1])
}

// flopsOf is the work of convolving input x with filter f, 0 for invalid
// shapes. It takes the two shapes, not a slice of them, so the backward
// convolutions price themselves without building one.
func (c Conv2D) flopsOf(x, f tensor.Shape) float64 {
	n, ci, _, _, k, kh, kw, oh, ow, err := c.convDims(x, f)
	if err != nil {
		return 0
	}
	return 2 * float64(n*k*oh*ow*ci*kh*kw)
}

// convAlgorithms builds the cuDNN-style algorithm menu shared by the
// forward and backward convolutions. im2colBytes is the explicit-GEMM
// workspace; winograd applies only to 3x3 stride-1 kernels.
func convAlgorithms(dst []Algorithm, dev hw.DeviceSpec, flops float64, traffic, im2colBytes int64, winogradOK bool) []Algorithm {
	algos := dst
	if winogradOK {
		algos = append(algos, Algorithm{
			Name:      "winograd",
			Workspace: traffic, // transform buffers scale with activations
			Duration:  roofline(dev, flops, effConvWinograd, halfSatConv, traffic),
		})
	}
	algos = append(algos, Algorithm{
		Name:      "gemm",
		Workspace: im2colBytes,
		Duration:  roofline(dev, flops, effConvGEMM, halfSatConv, traffic+im2colBytes),
	})
	algos = append(algos, Algorithm{
		Name:      "implicit-gemm",
		Workspace: 0,
		Duration:  roofline(dev, flops, effConvImplicit, halfSatConv, traffic),
	})
	return algos
}

// Algorithms implements Op.
func (c Conv2D) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) != 2 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	n, ci, _, _, k, kh, kw, oh, ow, err := c.convDims(in[0], in[1])
	if err != nil {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	traffic := sumBytes(in[0], in[1]) + n*k*oh*ow*4
	im2col := n * ci * kh * kw * oh * ow * 4
	winogradOK := kh == 3 && kw == 3 && c.StrideH == 1 && c.StrideW == 1
	return convAlgorithms(dst, dev, c.flops(in), traffic, im2col, winogradOK)
}

// Conv2DBackpropInput computes the gradient with respect to the
// convolution input. Inputs are [filter, dy]; the output shape (the
// original input's shape) is fixed at build time.
type Conv2DBackpropInput struct {
	Conv       Conv2D
	InputShape tensor.Shape
}

// Name implements Op.
func (Conv2DBackpropInput) Name() string { return "Conv2DBackpropInput" }

// InferShapes implements Op.
func (b Conv2DBackpropInput) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("Conv2DBackpropInput", in, 2); err != nil {
		return nil, err
	}
	return []tensor.Shape{b.InputShape}, nil
}

// flops is the same MAC count as the forward convolution's.
func (b Conv2DBackpropInput) flops(in []tensor.Shape) float64 {
	if err := arity("Conv2DBackpropInput", in, 2); err != nil {
		return 0
	}
	return b.Conv.flopsOf(b.InputShape, in[0])
}

// Algorithms implements Op.
func (b Conv2DBackpropInput) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if err := arity("Conv2DBackpropInput", in, 2); err != nil {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	f, dy := in[0], in[1]
	traffic := sumBytes(f, dy, b.InputShape)
	im2col := bytesOf(dy) * f[2] * f[3]
	winogradOK := len(f) == 4 && f[2] == 3 && f[3] == 3 && b.Conv.StrideH == 1 && b.Conv.StrideW == 1
	return convAlgorithms(dst, dev, b.flops(in), traffic, im2col, winogradOK)
}

// Conv2DBackpropFilter computes the gradient with respect to the filter.
// Inputs are [x, dy]; the output shape (the filter's shape) is fixed.
type Conv2DBackpropFilter struct {
	Conv        Conv2D
	FilterShape tensor.Shape
}

// Name implements Op.
func (Conv2DBackpropFilter) Name() string { return "Conv2DBackpropFilter" }

// InferShapes implements Op.
func (b Conv2DBackpropFilter) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("Conv2DBackpropFilter", in, 2); err != nil {
		return nil, err
	}
	return []tensor.Shape{b.FilterShape}, nil
}

// flops is the same MAC count as the forward convolution's.
func (b Conv2DBackpropFilter) flops(in []tensor.Shape) float64 {
	if err := arity("Conv2DBackpropFilter", in, 2); err != nil {
		return 0
	}
	return b.Conv.flopsOf(in[0], b.FilterShape)
}

// Algorithms implements Op.
func (b Conv2DBackpropFilter) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if err := arity("Conv2DBackpropFilter", in, 2); err != nil {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	x, dy := in[0], in[1]
	traffic := sumBytes(x, dy, b.FilterShape)
	im2col := x.Elems() / max(x[2]*x[3], 1) * b.FilterShape[2] * b.FilterShape[3] * dy[2] * dy[3] * 4
	// Filter gradients accumulate across the batch; Winograd variants are
	// rarely used here, so offer gemm and implicit-gemm only.
	return convAlgorithms(dst, dev, b.flops(in), traffic, im2col, false)
}
