// Package tensor defines the tensor abstraction that Capuchin manages:
// shaped, typed values identified by a stable ID, carrying the lineage
// (producer operation and input tensors) needed for recomputation and the
// runtime residency status driven by swapping.
//
// Tensors are symbolic: instead of element data they carry a 64-bit
// fingerprint derived from the producer operation and the fingerprints of
// its inputs. The fingerprint is the simulator's correctness oracle — any
// schedule of evictions, swaps and recomputations must deliver to every
// consumer a tensor whose fingerprint matches the one from an uncapped run
// (the paper's "both approaches do not affect training accuracy" invariant).
package tensor

import (
	"fmt"
	"strings"

	"capuchin/internal/memory"
	"capuchin/internal/sim"
)

// DType is a tensor element type.
type DType int

// Supported element types.
const (
	Float32 DType = iota
	Float16
	Int32
	Int64
	Bool
)

// Size reports the element size in bytes.
func (d DType) Size() int64 {
	switch d {
	case Float32, Int32:
		return 4
	case Float16:
		return 2
	case Int64:
		return 8
	case Bool:
		return 1
	default:
		panic(fmt.Sprintf("tensor: unknown dtype %d", int(d)))
	}
}

// String implements fmt.Stringer.
func (d DType) String() string {
	switch d {
	case Float32:
		return "f32"
	case Float16:
		return "f16"
	case Int32:
		return "i32"
	case Int64:
		return "i64"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("dtype(%d)", int(d))
	}
}

// Shape is a tensor shape; dimension order is NCHW for image tensors and
// [batch, seq, hidden] for sequence tensors.
type Shape []int64

// Elems reports the number of elements (1 for a scalar / empty shape).
func (s Shape) Elems() int64 {
	n := int64(1)
	for _, d := range s {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", []int64(s)))
		}
		n *= d
	}
	return n
}

// Equal reports whether two shapes are identical.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer, e.g. "[64 3 224 224]".
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Status is a tensor's residency state (§5.2, Listing 1). Tensors evicted
// for recomputation use only In, Freed and Recompute.
type Status int

// Residency states.
const (
	// In: resident in device memory.
	In Status = iota
	// SwappingOut: a D2H copy is in flight; device memory still held.
	SwappingOut
	// Out: resident only in host memory.
	Out
	// SwappingIn: an H2D copy is in flight; device memory already held.
	SwappingIn
	// Recompute: evicted with no host copy; must be recomputed from lineage.
	Recompute
	// Freed: dead — past its last use in the iteration.
	Freed
)

// String implements fmt.Stringer.
func (st Status) String() string {
	switch st {
	case In:
		return "IN"
	case SwappingOut:
		return "SWAPPING_OUT"
	case Out:
		return "OUT"
	case SwappingIn:
		return "SWAPPING_IN"
	case Recompute:
		return "RECOMPUTE"
	case Freed:
		return "FREED"
	default:
		return fmt.Sprintf("status(%d)", int(st))
	}
}

// legalTransitions encodes the residency state machine: entry st is the
// set of states st may move to, one bit per Status. An array indexed by
// Status keeps TransitionTo free of map hashing on the executor's path.
var legalTransitions = [...]uint8{
	In:          1<<SwappingOut | 1<<Recompute | 1<<Freed | 1<<In,
	SwappingOut: 1<<Out | 1<<In,                          // In: swap-out cancelled because the tensor was re-accessed first
	Out:         1<<SwappingIn | 1<<Recompute | 1<<Freed, // Recompute: swap-in abandoned under faults; regenerate from lineage
	SwappingIn:  1<<In | 1<<Out,
	Recompute:   1<<In | 1<<Freed,
	Freed:       1 << In, // a new iteration re-materializes the tensor
}

// Tensor is one value flowing through the computation. Mirrors the paper's
// Listing 1: a unique ID, access bookkeeping, residency status, and lineage
// (inputs + operation name) for recomputation.
type Tensor struct {
	// ID is stable across iterations, e.g. "conv2_3/Conv2D:0". The paper
	// relies on this to apply a policy learned in one iteration to the
	// same logical tensor in the next, even though its device address
	// changes (§5.2).
	ID string

	Shape Shape
	DType DType

	// OpName is the producing operation's node ID and Inputs its input
	// tensors; together they form the lineage used for recomputation.
	OpName string
	Inputs []*Tensor

	// Fingerprint is the content oracle: a hash of the producer and the
	// input fingerprints, assigned when the producing op executes.
	Fingerprint uint64

	// Persistent marks model weights and optimizer state: resident for
	// the whole training run and never an eviction candidate (§2.1).
	Persistent bool

	// Gradient marks backward-phase outputs, which are temporary and
	// freed immediately after their use (§2.1).
	Gradient bool

	// Idx is the tensor's dense index within its graph, assigned by the
	// graph reindex pass. Hot-path session state is keyed by Idx so the
	// inner loop never hashes tensor ID strings. -1 until assigned.
	Idx int32

	// Runtime state.
	Status      Status
	AccessCount int
	LastAccess  sim.Time
	Alloc       *memory.Allocation // device memory when In/SwappingOut/SwappingIn
}

// Arena block-allocates tensors for bulk producers (the graph builder
// creates thousands per model). Tensors from an arena live as long as any
// tensor in their block is referenced. A zero Arena is ready to use.
type Arena struct {
	chunk []Tensor
}

// arenaChunk is the arena block size; one ResNet-50 build fills a few.
const arenaChunk = 512

// New creates a tensor with the given identity and shape inside the
// arena: not yet placed (Freed) and without a dense index (-1).
func (a *Arena) New(id string, shape Shape, dtype DType) *Tensor {
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]Tensor, 0, arenaChunk)
	}
	a.chunk = append(a.chunk, Tensor{ID: id, Shape: shape, DType: dtype, Status: Freed, Idx: -1})
	return &a.chunk[len(a.chunk)-1]
}

// Bytes reports the tensor's device memory footprint.
func (t *Tensor) Bytes() int64 { return t.Shape.Elems() * t.DType.Size() }

// Resident reports whether the tensor's bytes are valid in device memory.
// A tensor mid-swap-out is still readable on device.
func (t *Tensor) Resident() bool {
	return t.Status == In || t.Status == SwappingOut
}

// TransitionTo moves the tensor to a new residency status, enforcing the
// state machine. It returns an error naming both states on an illegal move,
// which in practice indicates an executor or policy bug.
func (t *Tensor) TransitionTo(next Status) error {
	// The uint conversions reject negative states along with large ones.
	cur, n := uint(t.Status), uint(len(legalTransitions))
	if cur < n && uint(next) < n && legalTransitions[cur]&(1<<next) != 0 {
		t.Status = next
		return nil
	}
	return fmt.Errorf("tensor %s: illegal status transition %v -> %v", t.ID, t.Status, next)
}

// Touch records an access at the given virtual time and returns the new
// access count (1 for the producing access).
func (t *Tensor) Touch(at sim.Time) int {
	t.AccessCount++
	t.LastAccess = at
	return t.AccessCount
}

// ResetIteration clears per-iteration runtime state. Identity, lineage and
// persistence survive; fingerprints of persistent tensors survive too
// (weights carry over between iterations).
func (t *Tensor) ResetIteration() {
	t.AccessCount = 0
	t.LastAccess = 0
	if !t.Persistent {
		t.Status = Freed
		t.Fingerprint = 0
		t.Alloc = nil
	}
}

// String implements fmt.Stringer.
func (t *Tensor) String() string {
	return fmt.Sprintf("%s%s:%s(%s)", t.ID, t.Shape, t.DType, t.Status)
}

// fnv64Offset and fnv64Prime are the FNV-1a constants.
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

// HashSeed starts a fingerprint chain from a string (an op's node ID).
func HashSeed(s string) uint64 {
	h := uint64(fnv64Offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnv64Prime
	}
	return h
}

// HashCombine folds a value into a fingerprint chain: FNV-1a over its
// eight little-endian bytes, unrolled.
func HashCombine(h, v uint64) uint64 {
	h = (h ^ (v & 0xff)) * fnv64Prime
	h = (h ^ (v >> 8 & 0xff)) * fnv64Prime
	h = (h ^ (v >> 16 & 0xff)) * fnv64Prime
	h = (h ^ (v >> 24 & 0xff)) * fnv64Prime
	h = (h ^ (v >> 32 & 0xff)) * fnv64Prime
	h = (h ^ (v >> 40 & 0xff)) * fnv64Prime
	h = (h ^ (v >> 48 & 0xff)) * fnv64Prime
	h = (h ^ (v >> 56)) * fnv64Prime
	return h
}

// FingerprintFrom derives an output fingerprint from the producing op's
// HashSeed and its input fingerprints; outputIndex distinguishes multiple
// outputs of one op. The seed is computed once per op, for callers that
// derive fingerprints of one op repeatedly (the executor seeds every node
// once per session).
func FingerprintFrom(seed uint64, outputIndex int, inputs []uint64) uint64 {
	h := HashCombine(seed, uint64(outputIndex))
	for _, in := range inputs {
		h = HashCombine(h, in)
	}
	return h
}
