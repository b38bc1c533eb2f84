// Package ops defines the operator library of the simulated deep-learning
// framework: shape inference, memory-traffic formulas, FLOP counts for the
// compute-bound kernels, and the roofline cost model that turns them into
// virtual durations on a hw.DeviceSpec.
//
// Convolutions expose multiple algorithms with different workspace
// requirements and speeds, mirroring cuDNN: the executor picks the fastest
// algorithm whose workspace fits in free device memory and falls back to
// the slower zero-workspace algorithm under memory pressure. This
// reproduces both the "convolution workspace" memory consumer of the
// paper's §2.1 and the VGG16 slow-algorithm fallback of §6.3.2.
package ops

import (
	"fmt"

	"capuchin/internal/hw"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// Algorithm is one way to execute an operation: a workspace requirement and
// the resulting duration. Algorithms lists are sorted fastest-first and end
// with a zero-workspace fallback so execution can always proceed.
type Algorithm struct {
	Name      string
	Workspace int64
	Duration  sim.Time
}

// Op describes an operation's static properties: everything the
// simulator reads of an operator is its name, its output shapes and the
// workspace and duration of each way to run it. Implementations are
// immutable once built into a graph.
type Op interface {
	// Name is the operation kind, e.g. "Conv2D".
	Name() string
	// InferShapes derives output shapes from input shapes. The in slice
	// is a caller-owned scratch buffer: implementations must not retain
	// or return it (returning a fresh slice, as all built-ins do).
	InferShapes(in []tensor.Shape) ([]tensor.Shape, error)
	// Algorithms appends the executable variants to dst and returns the
	// extended slice, like strconv.AppendInt: sorted fastest first, with
	// a zero-workspace entry last, and at least one. The in slice is
	// caller-owned scratch, as for InferShapes. The executor keeps every
	// node's menu in one flat slice per session, so an implementation
	// that allocates nothing beyond growing dst costs a recycled session
	// nothing; all built-ins do. One that returns a slice of its own
	// instead is still correct: the executor copies the result.
	Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm
}

// shapeError builds a consistent shape-inference error.
func shapeError(op string, in []tensor.Shape, format string, args ...interface{}) error {
	return fmt.Errorf("ops: %s%v: %s", op, in, fmt.Sprintf(format, args...))
}

// arity checks the number of inputs.
func arity(op string, in []tensor.Shape, want int) error {
	if len(in) != want {
		return shapeError(op, in, "want %d inputs, got %d", want, len(in))
	}
	return nil
}

// bytesOf reports the byte size of a float32 tensor with the given shape.
func bytesOf(s tensor.Shape) int64 { return s.Elems() * 4 }

// sumBytes reports the total float32 byte size of several shapes.
func sumBytes(shapes ...tensor.Shape) int64 {
	var n int64
	for _, s := range shapes {
		n += bytesOf(s)
	}
	return n
}

// roofline computes a kernel duration as the larger of its compute time
// (with an occupancy ramp) and its memory time.
func roofline(dev hw.DeviceSpec, flops, maxEff, halfSat float64, bytes int64) sim.Time {
	ct := dev.ComputeTime(flops, maxEff, halfSat)
	mt := dev.MemoryTime(bytes)
	return sim.MaxTime(ct, mt)
}

// single appends one duration as the sole (zero-workspace) algorithm.
func single(dst []Algorithm, name string, d sim.Time) []Algorithm {
	return append(dst, Algorithm{Name: name, Workspace: 0, Duration: d})
}

// memBound appends the single algorithm of a purely memory-bound op.
func memBound(dst []Algorithm, dev hw.DeviceSpec, name string, bytes int64) []Algorithm {
	return single(dst, name, dev.MemoryTime(bytes))
}

// elemsWith is the element count of shape s with dimension d set to v.
func elemsWith(s tensor.Shape, d int, v int64) int64 {
	n := int64(1)
	for i, x := range s {
		if i == d {
			x = v
		}
		n *= x
	}
	return n
}

// Tunable efficiency constants of the cost model. They were chosen so that
// P100 simulations land near the paper's measured figures: conv layer times
// spanning ~474us..17.7ms on InceptionV3 (Fig. 2), ResNet-50 tensor access
// gaps of hundreds of ms (Fig. 3), and iteration times above 1s for the
// large-batch CNNs (§3.1).
const (
	effConvImplicit = 0.40 // implicit GEMM, zero workspace
	effConvGEMM     = 0.52 // explicit GEMM with im2col workspace
	effConvWinograd = 0.74 // Winograd for 3x3 stride-1
	effMatMul       = 0.62

	halfSatConv = 1.2e9 // FLOPs at which conv reaches half its peak eff
	// Matrix multiplies saturate much later than convolutions: transformer
	// kernels split work across heads and sequence tiles, which is why the
	// paper sees BERT's GPU utilization climb from 31.7% at batch 48 to
	// 73.7% at batch 200 (§6.3.2) — throughput *rises* with batch size.
	halfSatMatMul = 30e9
)
