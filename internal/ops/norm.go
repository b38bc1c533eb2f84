package ops

import (
	"capuchin/internal/hw"
	"capuchin/internal/tensor"
)

// BatchNorm normalizes activations over the batch. Inputs are
// [x, scale, offset]; scale and offset are per-channel vectors.
type BatchNorm struct{}

// Name implements Op.
func (BatchNorm) Name() string { return "BatchNorm" }

// InferShapes implements Op.
func (BatchNorm) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("BatchNorm", in, 3); err != nil {
		return nil, err
	}
	c := biasChannel(in[0])
	for i := 1; i <= 2; i++ {
		if len(in[i]) != 1 || in[i][0] != c {
			return nil, shapeError("BatchNorm", in, "param %d does not match channel %d", i, c)
		}
	}
	return []tensor.Shape{in[0]}, nil
}

// Algorithms implements Op.
func (BatchNorm) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) != 3 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	// Two read passes (statistics + normalize) and one write.
	return memBound(dst, dev, "norm", 3*bytesOf(in[0]))
}

// BatchNormGrad computes [dx, dscale, doffset] from [x, scale, dy].
type BatchNormGrad struct{}

// Name implements Op.
func (BatchNormGrad) Name() string { return "BatchNormGrad" }

// InferShapes implements Op.
func (BatchNormGrad) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("BatchNormGrad", in, 3); err != nil {
		return nil, err
	}
	c := biasChannel(in[0])
	return []tensor.Shape{in[0], {c}, {c}}, nil
}

// Algorithms implements Op.
func (BatchNormGrad) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) != 3 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	return memBound(dst, dev, "norm", 4*bytesOf(in[0]))
}

// LayerNorm normalizes over the last dimension (transformer blocks).
// Inputs are [x, scale, offset].
type LayerNorm struct{}

// Name implements Op.
func (LayerNorm) Name() string { return "LayerNorm" }

// InferShapes implements Op.
func (LayerNorm) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("LayerNorm", in, 3); err != nil {
		return nil, err
	}
	h := in[0][len(in[0])-1]
	for i := 1; i <= 2; i++ {
		if len(in[i]) != 1 || in[i][0] != h {
			return nil, shapeError("LayerNorm", in, "param %d does not match hidden %d", i, h)
		}
	}
	return []tensor.Shape{in[0]}, nil
}

// Algorithms implements Op.
func (LayerNorm) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) != 3 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	return memBound(dst, dev, "norm", 3*bytesOf(in[0]))
}

// LayerNormGrad computes [dx, dscale, doffset] from [x, scale, dy].
type LayerNormGrad struct{}

// Name implements Op.
func (LayerNormGrad) Name() string { return "LayerNormGrad" }

// InferShapes implements Op.
func (LayerNormGrad) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("LayerNormGrad", in, 3); err != nil {
		return nil, err
	}
	h := in[0][len(in[0])-1]
	return []tensor.Shape{in[0], {h}, {h}}, nil
}

// Algorithms implements Op.
func (LayerNormGrad) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) != 3 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	return memBound(dst, dev, "norm", 4*bytesOf(in[0]))
}
