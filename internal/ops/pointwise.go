package ops

import (
	"capuchin/internal/hw"
	"capuchin/internal/tensor"
)

// Pointwise is a memory-bound elementwise operator: every input has the
// output's shape, and the kernel's duration is the time to stream a fixed
// multiple of one operand's bytes through device memory. The kinds differ
// only in name, arity, that multiple and the algorithm label, which one
// table holds.
type Pointwise uint8

// The pointwise kinds. A gradient kind's inputs are [y, dy] when it reads
// the forward output, [x, dy] when it reads the forward input, and [dy]
// alone for DropoutGrad, which regenerates its mask from the op's seed.
const (
	ReLU        Pointwise = iota // rectified-linear activation
	ReLUGrad                     // dx from [y, dy]: dy where y > 0
	GELU                         // Gaussian-error linear unit (BERT)
	GELUGrad                     // dx from [x, dy]
	Sigmoid                      // logistic activation (LSTM/GRU gates)
	SigmoidGrad                  // dx from [y, dy]: dy * y * (1 - y)
	Tanh                         // hyperbolic tangent (LSTM cell candidates)
	TanhGrad                     // dx from [y, dy]: dy * (1 - y^2)
	Softmax                      // normalizes over the last dimension
	SoftmaxGrad                  // dx from [y, dy]
	Dropout                      // randomly zeroes elements
	DropoutGrad                  // applies the regenerated mask to [dy]
	Add                          // a + b (residual joins)
	Sub                          // a - b (a GRU's h' = n + z*(h - n))
	Mul                          // a * b (gating in LSTMs and GRUs)
	Neg                          // -a; Sub's gradient toward its subtrahend
)

// pointwiseKinds describes each kind: traffic is the bytes the kernel
// moves in multiples of in[0]'s size (one read per input plus one write,
// and an extra read pass for Softmax's row maximum).
var pointwiseKinds = [...]struct {
	name    string
	arity   int
	traffic int64
	algo    string
}{
	ReLU:        {"ReLU", 1, 2, "elementwise"},
	ReLUGrad:    {"ReLUGrad", 2, 3, "elementwise"},
	GELU:        {"GELU", 1, 2, "elementwise"},
	GELUGrad:    {"GELUGrad", 2, 3, "elementwise"},
	Sigmoid:     {"Sigmoid", 1, 2, "elementwise"},
	SigmoidGrad: {"SigmoidGrad", 2, 3, "elementwise"},
	Tanh:        {"Tanh", 1, 2, "elementwise"},
	TanhGrad:    {"TanhGrad", 2, 3, "elementwise"},
	Softmax:     {"Softmax", 1, 3, "norm"},
	SoftmaxGrad: {"SoftmaxGrad", 2, 3, "norm"},
	Dropout:     {"Dropout", 1, 2, "elementwise"},
	DropoutGrad: {"DropoutGrad", 1, 2, "elementwise"},
	Add:         {"Add", 2, 3, "elementwise"},
	Sub:         {"Sub", 2, 3, "elementwise"},
	Mul:         {"Mul", 2, 3, "elementwise"},
	Neg:         {"Neg", 1, 2, "elementwise"},
}

// Name implements Op.
func (p Pointwise) Name() string { return pointwiseKinds[p].name }

// InferShapes implements Op: every input must have in[0]'s shape, which
// is the output's.
func (p Pointwise) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	k := &pointwiseKinds[p]
	if err := arity(k.name, in, k.arity); err != nil {
		return nil, err
	}
	for _, s := range in[1:] {
		if !s.Equal(in[0]) {
			return nil, shapeError(k.name, in, "operand shapes differ")
		}
	}
	return []tensor.Shape{in[0]}, nil
}

// Algorithms implements Op.
func (p Pointwise) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	k := &pointwiseKinds[p]
	if len(in) != k.arity {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	return memBound(dst, dev, k.algo, k.traffic*bytesOf(in[0]))
}
