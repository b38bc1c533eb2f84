package ops

import (
	"capuchin/internal/hw"
	"capuchin/internal/tensor"
)

// DepthwiseConv2D convolves each channel with its own single filter
// (filter shape [C,1,KH,KW]), the building block of MobileNet-style
// inverted residuals. Depthwise kernels are strongly memory-bound — very
// low arithmetic intensity — which makes them poor recomputation sources
// by FLOPs but cheap ones by wall-clock, a distinction Capuchin's measured
// costs capture and static FLOP heuristics miss.
type DepthwiseConv2D struct {
	StrideH, StrideW int64
	PadH, PadW       int64
}

// Name implements Op.
func (DepthwiseConv2D) Name() string { return "DepthwiseConv2D" }

// dims extracts and validates the shapes of a depthwise convolution: x
// is [N,C,H,W], f is [C,1,KH,KW].
func (c DepthwiseConv2D) dims(x, f tensor.Shape) (n, ch, oh, ow, kh, kw int64, err error) {
	if len(x) != 4 || len(f) != 4 {
		return 0, 0, 0, 0, 0, 0, shapeError("DepthwiseConv2D", []tensor.Shape{x, f}, "want 4-D input and filter")
	}
	if f[0] != x[1] || f[1] != 1 {
		return 0, 0, 0, 0, 0, 0, shapeError("DepthwiseConv2D", []tensor.Shape{x, f}, "filter must be [C,1,KH,KW] with C=%d", x[1])
	}
	oh = outSpatial(x[2], f[2], c.StrideH, c.PadH)
	ow = outSpatial(x[3], f[3], c.StrideW, c.PadW)
	if oh <= 0 || ow <= 0 {
		return 0, 0, 0, 0, 0, 0, shapeError("DepthwiseConv2D", []tensor.Shape{x, f}, "non-positive output %dx%d", oh, ow)
	}
	return x[0], x[1], oh, ow, f[2], f[3], nil
}

// InferShapes implements Op.
func (c DepthwiseConv2D) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("DepthwiseConv2D", in, 2); err != nil {
		return nil, err
	}
	n, ch, oh, ow, _, _, err := c.dims(in[0], in[1])
	if err != nil {
		return nil, err
	}
	return []tensor.Shape{{n, ch, oh, ow}}, nil
}

// flops is the convolution's work: one MAC per kernel tap per output
// element.
func (c DepthwiseConv2D) flops(in []tensor.Shape) float64 {
	if len(in) != 2 {
		return 0
	}
	return c.flopsOf(in[0], in[1])
}

// flopsOf is the work of convolving input x with filter f, 0 for invalid
// shapes.
func (c DepthwiseConv2D) flopsOf(x, f tensor.Shape) float64 {
	n, ch, oh, ow, kh, kw, err := c.dims(x, f)
	if err != nil {
		return 0
	}
	return 2 * float64(n*ch*oh*ow*kh*kw)
}

// Algorithms implements Op: memory-bound, no workspace variants.
func (c DepthwiseConv2D) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) != 2 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	n, ch, oh, ow, _, _, err := c.dims(in[0], in[1])
	if err != nil {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	traffic := sumBytes(in[0], in[1]) + n*ch*oh*ow*4
	return single(dst, "depthwise", roofline(dev, c.flops(in), 0.25, halfSatConv/4, traffic))
}

// DepthwiseBackpropInput computes dx from [filter, dy].
type DepthwiseBackpropInput struct {
	Conv       DepthwiseConv2D
	InputShape tensor.Shape
}

// Name implements Op.
func (DepthwiseBackpropInput) Name() string { return "DepthwiseBackpropInput" }

// InferShapes implements Op.
func (b DepthwiseBackpropInput) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("DepthwiseBackpropInput", in, 2); err != nil {
		return nil, err
	}
	return []tensor.Shape{b.InputShape}, nil
}

// flops is the same MAC count as the forward convolution's.
func (b DepthwiseBackpropInput) flops(in []tensor.Shape) float64 {
	if len(in) != 2 {
		return 0
	}
	return b.Conv.flopsOf(b.InputShape, in[0])
}

// Algorithms implements Op.
func (b DepthwiseBackpropInput) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) != 2 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	traffic := sumBytes(in[0], in[1], b.InputShape)
	return single(dst, "depthwise", roofline(dev, b.flops(in), 0.25, halfSatConv/4, traffic))
}

// DepthwiseBackpropFilter computes dw from [x, dy].
type DepthwiseBackpropFilter struct {
	Conv        DepthwiseConv2D
	FilterShape tensor.Shape
}

// Name implements Op.
func (DepthwiseBackpropFilter) Name() string { return "DepthwiseBackpropFilter" }

// InferShapes implements Op.
func (b DepthwiseBackpropFilter) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("DepthwiseBackpropFilter", in, 2); err != nil {
		return nil, err
	}
	return []tensor.Shape{b.FilterShape}, nil
}

// flops is the same MAC count as the forward convolution's.
func (b DepthwiseBackpropFilter) flops(in []tensor.Shape) float64 {
	if len(in) != 2 {
		return 0
	}
	return b.Conv.flopsOf(in[0], b.FilterShape)
}

// Algorithms implements Op.
func (b DepthwiseBackpropFilter) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) != 2 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	traffic := sumBytes(in[0], in[1], b.FilterShape)
	return single(dst, "depthwise", roofline(dev, b.flops(in), 0.25, halfSatConv/4, traffic))
}
