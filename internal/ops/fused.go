package ops

import (
	"capuchin/internal/hw"
	"capuchin/internal/tensor"
)

// FusedBias wraps a Conv2D or MatMul with a fused bias addition, the way
// cuDNN/cuBLAS epilogues do. Graph mode fuses BiasAdd into its producer
// when the pre-bias intermediate has no other consumer, eliminating one
// activation-sized tensor per layer — part of the memory advantage graph
// execution holds over eager execution (§6.4.1). The last input is the
// bias vector.
type FusedBias struct {
	Inner Op
}

// Name implements Op.
func (f FusedBias) Name() string { return f.Inner.Name() + "+BiasAdd" }

// InferShapes implements Op; the bias (last input) does not change shapes.
func (f FusedBias) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if len(in) < 2 {
		return nil, shapeError(f.Name(), in, "want inner inputs plus bias")
	}
	return f.Inner.InferShapes(in[:len(in)-1])
}

// Algorithms implements Op; the epilogue rides along with the inner kernel.
func (f FusedBias) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) < 2 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	return f.Inner.Algorithms(dev, in[:len(in)-1], dst)
}
