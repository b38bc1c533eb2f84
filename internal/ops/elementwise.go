package ops

import (
	"capuchin/internal/hw"
	"capuchin/internal/tensor"
)

// AddN sums any number of same-shaped tensors; the autodiff builder uses it
// to accumulate gradient contributions at fan-out points.
type AddN struct{}

// Name implements Op.
func (AddN) Name() string { return "AddN" }

// InferShapes implements Op.
func (AddN) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if len(in) == 0 {
		return nil, shapeError("AddN", in, "want at least one input")
	}
	for _, s := range in[1:] {
		if !s.Equal(in[0]) {
			return nil, shapeError("AddN", in, "operand shapes differ")
		}
	}
	return []tensor.Shape{in[0]}, nil
}

// Algorithms implements Op.
func (AddN) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) == 0 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	return memBound(dst, dev, "elementwise", int64(len(in)+1)*bytesOf(in[0]))
}

// BiasAdd adds a per-channel bias [C] to an activation whose second
// dimension (NCHW) or last dimension (sequence tensors) is C.
type BiasAdd struct{}

// Name implements Op.
func (BiasAdd) Name() string { return "BiasAdd" }

// biasChannel returns the channel dimension a bias applies to.
func biasChannel(x tensor.Shape) int64 {
	if len(x) == 4 {
		return x[1] // NCHW
	}
	return x[len(x)-1]
}

// InferShapes implements Op.
func (BiasAdd) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("BiasAdd", in, 2); err != nil {
		return nil, err
	}
	if len(in[1]) != 1 || in[1][0] != biasChannel(in[0]) {
		return nil, shapeError("BiasAdd", in, "bias %v does not match channel %d", in[1], biasChannel(in[0]))
	}
	return []tensor.Shape{in[0]}, nil
}

// Algorithms implements Op.
func (BiasAdd) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) != 2 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	return memBound(dst, dev, "elementwise", 2*bytesOf(in[0]))
}

// BiasAddGrad reduces dy over all non-channel dimensions to produce the
// bias gradient.
type BiasAddGrad struct{}

// Name implements Op.
func (BiasAddGrad) Name() string { return "BiasAddGrad" }

// InferShapes implements Op.
func (BiasAddGrad) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("BiasAddGrad", in, 1); err != nil {
		return nil, err
	}
	return []tensor.Shape{{biasChannel(in[0])}}, nil
}

// Algorithms implements Op.
func (BiasAddGrad) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) != 1 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	return memBound(dst, dev, "reduce", bytesOf(in[0]))
}

// Reshape reinterprets a tensor with a new shape of equal element count.
// It is modeled as a copy: treating it as a free alias would complicate
// memory accounting without changing any policy decision materially.
type Reshape struct {
	To tensor.Shape
}

// Name implements Op.
func (Reshape) Name() string { return "Reshape" }

// InferShapes implements Op.
func (r Reshape) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("Reshape", in, 1); err != nil {
		return nil, err
	}
	if in[0].Elems() != r.To.Elems() {
		return nil, shapeError("Reshape", in, "element count mismatch with %v", r.To)
	}
	return []tensor.Shape{r.To}, nil
}

// Algorithms implements Op.
func (r Reshape) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) != 1 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	return memBound(dst, dev, "copy", 2*bytesOf(in[0]))
}

// Transpose permutes dimensions (used by attention's head reshuffles).
type Transpose struct {
	Perm []int
}

// Name implements Op.
func (Transpose) Name() string { return "Transpose" }

// InferShapes implements Op.
func (t Transpose) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("Transpose", in, 1); err != nil {
		return nil, err
	}
	if len(t.Perm) != len(in[0]) {
		return nil, shapeError("Transpose", in, "perm %v rank mismatch", t.Perm)
	}
	out := make(tensor.Shape, len(in[0]))
	seen := make([]bool, len(in[0]))
	for i, p := range t.Perm {
		if p < 0 || p >= len(in[0]) || seen[p] {
			return nil, shapeError("Transpose", in, "invalid perm %v", t.Perm)
		}
		seen[p] = true
		out[i] = in[0][p]
	}
	return []tensor.Shape{out}, nil
}

// Algorithms implements Op.
func (t Transpose) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) != 1 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	return memBound(dst, dev, "copy", 2*bytesOf(in[0]))
}

// Pad zero-pads spatial dimensions (Inception branch alignment).
type Pad struct {
	// Before and After give per-dimension padding.
	Before, After []int64
}

// Name implements Op.
func (Pad) Name() string { return "Pad" }

// InferShapes implements Op.
func (p Pad) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := p.check(in); err != nil {
		return nil, err
	}
	out := make(tensor.Shape, len(in[0]))
	for i := range out {
		out[i] = in[0][i] + p.Before[i] + p.After[i]
	}
	return []tensor.Shape{out}, nil
}

// check validates Pad's input shapes.
func (p Pad) check(in []tensor.Shape) error {
	if err := arity("Pad", in, 1); err != nil {
		return err
	}
	if len(p.Before) != len(in[0]) || len(p.After) != len(in[0]) {
		return shapeError("Pad", in, "padding rank mismatch")
	}
	return nil
}

// Algorithms implements Op.
func (p Pad) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if p.check(in) != nil {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	out := int64(1)
	for i, d := range in[0] {
		out *= d + p.Before[i] + p.After[i]
	}
	return memBound(dst, dev, "copy", bytesOf(in[0])+out*4)
}

// Slice extracts a contiguous channel range; it is the gradient of Concat.
type Slice struct {
	// Dim is the sliced dimension; Start and Length the range.
	Dim    int
	Start  int64
	Length int64
}

// Name implements Op.
func (Slice) Name() string { return "Slice" }

// InferShapes implements Op.
func (s Slice) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := s.check(in); err != nil {
		return nil, err
	}
	out := make(tensor.Shape, len(in[0]))
	copy(out, in[0])
	out[s.Dim] = s.Length
	return []tensor.Shape{out}, nil
}

// check validates Slice's input shape against its range.
func (s Slice) check(in []tensor.Shape) error {
	if err := arity("Slice", in, 1); err != nil {
		return err
	}
	if s.Dim < 0 || s.Dim >= len(in[0]) {
		return shapeError("Slice", in, "dim %d out of range", s.Dim)
	}
	if s.Start < 0 || s.Start+s.Length > in[0][s.Dim] {
		return shapeError("Slice", in, "range [%d,%d) exceeds dim %d", s.Start, s.Start+s.Length, in[0][s.Dim])
	}
	return nil
}

// Algorithms implements Op.
func (s Slice) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if s.check(in) != nil {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	return memBound(dst, dev, "copy", 2*4*elemsWith(in[0], s.Dim, s.Length))
}

// Concat joins tensors along one dimension (Inception/DenseNet joins).
type Concat struct {
	Dim int
}

// Name implements Op.
func (Concat) Name() string { return "Concat" }

// InferShapes implements Op.
func (c Concat) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	joined, err := c.joined(in)
	if err != nil {
		return nil, err
	}
	out := make(tensor.Shape, len(in[0]))
	copy(out, in[0])
	out[c.Dim] = joined
	return []tensor.Shape{out}, nil
}

// joined validates Concat's input shapes and returns the size of the
// joined dimension.
func (c Concat) joined(in []tensor.Shape) (int64, error) {
	if len(in) < 2 {
		return 0, shapeError("Concat", in, "want at least two inputs")
	}
	if c.Dim < 0 || c.Dim >= len(in[0]) {
		return 0, shapeError("Concat", in, "dim %d out of range", c.Dim)
	}
	joined := in[0][c.Dim]
	for _, s := range in[1:] {
		if len(s) != len(in[0]) {
			return 0, shapeError("Concat", in, "rank mismatch")
		}
		for d := range s {
			if d == c.Dim {
				continue
			}
			if s[d] != in[0][d] {
				return 0, shapeError("Concat", in, "dim %d mismatch", d)
			}
		}
		joined += s[c.Dim]
	}
	return joined, nil
}

// Algorithms implements Op.
func (c Concat) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	joined, err := c.joined(in)
	if err != nil {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	return memBound(dst, dev, "copy", 2*4*elemsWith(in[0], c.Dim, joined))
}
