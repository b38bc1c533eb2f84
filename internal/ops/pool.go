package ops

import (
	"capuchin/internal/hw"
	"capuchin/internal/tensor"
)

// PoolKind selects max or average pooling.
type PoolKind int

// Pooling variants.
const (
	MaxPoolKind PoolKind = iota
	AvgPoolKind
)

func (k PoolKind) String() string {
	if k == MaxPoolKind {
		return "MaxPool"
	}
	return "AvgPool"
}

// Pool is a 2-D spatial pooling over NCHW input. A kernel of 0 means
// "global": pool the full spatial extent.
type Pool struct {
	Kind             PoolKind
	KH, KW           int64
	StrideH, StrideW int64
	PadH, PadW       int64
}

// Name implements Op.
func (p Pool) Name() string { return p.Kind.String() }

func (p Pool) dims(in []tensor.Shape) (n, c, oh, ow, kh, kw int64, err error) {
	if e := arity(p.Name(), in, 1); e != nil {
		return 0, 0, 0, 0, 0, 0, e
	}
	x := in[0]
	if len(x) != 4 {
		return 0, 0, 0, 0, 0, 0, shapeError(p.Name(), in, "want 4-D input")
	}
	kh, kw = p.KH, p.KW
	sh, sw := p.StrideH, p.StrideW
	if kh == 0 { // global pooling
		kh, kw, sh, sw = x[2], x[3], 1, 1
	}
	oh = outSpatial(x[2], kh, sh, p.PadH)
	ow = outSpatial(x[3], kw, sw, p.PadW)
	if oh <= 0 || ow <= 0 {
		return 0, 0, 0, 0, 0, 0, shapeError(p.Name(), in, "non-positive output %dx%d", oh, ow)
	}
	return x[0], x[1], oh, ow, kh, kw, nil
}

// InferShapes implements Op.
func (p Pool) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	n, c, oh, ow, _, _, err := p.dims(in)
	if err != nil {
		return nil, err
	}
	return []tensor.Shape{{n, c, oh, ow}}, nil
}

// Algorithms implements Op.
func (p Pool) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	n, c, oh, ow, _, _, err := p.dims(in)
	if err != nil {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	return memBound(dst, dev, "pool", bytesOf(in[0])+n*c*oh*ow*4)
}

// PoolGrad computes dx from [x, y, dy]: max pooling needs the forward
// input and output to route gradients; average pooling is modeled with the
// same signature for uniformity.
type PoolGrad struct {
	Pool Pool
}

// Name implements Op.
func (g PoolGrad) Name() string { return g.Pool.Kind.String() + "Grad" }

// InferShapes implements Op.
func (g PoolGrad) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity(g.Name(), in, 3); err != nil {
		return nil, err
	}
	return []tensor.Shape{in[0]}, nil
}

// Algorithms implements Op.
func (g PoolGrad) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) != 3 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	return memBound(dst, dev, "pool", 2*bytesOf(in[0])+2*bytesOf(in[1]))
}
