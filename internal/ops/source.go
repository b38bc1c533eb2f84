package ops

import (
	"fmt"

	"capuchin/internal/hw"
	"capuchin/internal/tensor"
)

// Input produces one synthetic training batch. The paper's CNN evaluation
// uses synthetic data precisely so that input pipelines do not mask memory
// effects (§6.1); Input therefore costs only a device-side fill.
type Input struct {
	Shape tensor.Shape
	DType tensor.DType
}

// Name implements Op.
func (Input) Name() string { return "Input" }

// InferShapes implements Op.
func (i Input) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("Input", in, 0); err != nil {
		return nil, err
	}
	return []tensor.Shape{i.Shape}, nil
}

// Algorithms implements Op.
func (i Input) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	return memBound(dst, dev, "fill", i.Shape.Elems()*i.DType.Size())
}

// Variable materializes a persistent parameter tensor (weights, biases,
// embedding tables). Variables are resident for the whole run, excluded
// from eviction (§2.1), and only their ApplyGradient updates touch them in
// backward.
type Variable struct {
	Shape tensor.Shape
}

// Name implements Op.
func (Variable) Name() string { return "Variable" }

// InferShapes implements Op.
func (v Variable) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("Variable", in, 0); err != nil {
		return nil, err
	}
	return []tensor.Shape{v.Shape}, nil
}

// Algorithms implements Op.
func (v Variable) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	return single(dst, "resident", 0)
}

// Optimizer selects the update rule an ApplyGradient performs (§2.1 of
// the paper lists SGD, Momentum and Adam as the common choices).
type Optimizer int

// Update rules, in increasing optimizer-state cost: SGD keeps none,
// Momentum one velocity slot, Adam two moment slots per parameter.
const (
	SGD Optimizer = iota
	Momentum
	Adam
)

// String implements fmt.Stringer.
func (o Optimizer) String() string {
	switch o {
	case SGD:
		return "sgd"
	case Momentum:
		return "momentum"
	case Adam:
		return "adam"
	default:
		return fmt.Sprintf("optimizer(%d)", int(o))
	}
}

// StateSlots reports the per-parameter optimizer state tensors the rule
// maintains on device for the whole run.
func (o Optimizer) StateSlots() int64 {
	switch o {
	case Momentum:
		return 1
	case Adam:
		return 2
	default:
		return 0
	}
}

// ApplyGradient performs an in-place update of a variable from
// [variable, gradient]. Its output is the updated variable handle (a
// zero-byte control edge in the simulator's accounting, since the update is
// in place).
type ApplyGradient struct {
	// Rule selects SGD (default), Momentum or Adam.
	Rule Optimizer
	// Momentum is a legacy alias: true selects the Momentum rule when
	// Rule is SGD.
	Momentum bool
}

// Effective resolves the configured optimizer rule.
func (a ApplyGradient) Effective() Optimizer {
	if a.Rule == SGD && a.Momentum {
		return Momentum
	}
	return a.Rule
}

// Name implements Op.
func (ApplyGradient) Name() string { return "ApplyGradient" }

// InferShapes implements Op. Inputs are [variable, gradient] plus one
// state tensor per optimizer slot, all variable-shaped.
func (a ApplyGradient) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	want := 2 + int(a.Effective().StateSlots())
	if len(in) != 2 && len(in) != want {
		return nil, shapeError("ApplyGradient", in, "want 2 or %d inputs, got %d", want, len(in))
	}
	for _, s := range in[1:] {
		if !s.Equal(in[0]) {
			return nil, shapeError("ApplyGradient", in, "operand shapes differ")
		}
	}
	return []tensor.Shape{{}}, nil // control output
}

// Algorithms implements Op.
func (a ApplyGradient) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) < 2 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	// Read var + read grad + write var, plus a read-modify-write pass per
	// optimizer-state slot.
	passes := 3 + 2*a.Effective().StateSlots()
	return memBound(dst, dev, "update", passes*bytesOf(in[0]))
}
