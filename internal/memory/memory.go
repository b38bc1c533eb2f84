// Package memory implements the GPU memory allocators used by the
// simulator. The primary allocator is a faithful reimplementation of
// TensorFlow's BFC (best-fit with coalescing) allocator — power-of-two size
// bins over a single device region, chunk splitting on allocation and
// neighbour coalescing on free — because fragmentation and allocation
// failure behaviour shape Capuchin's passive-mode eviction. A simple
// first-fit free-list allocator is provided for the allocator ablation, and
// HostArena models the pinned CPU staging area that swapped-out tensors
// occupy.
package memory

import (
	"errors"
	"fmt"
)

// MinCapacity is the smallest capacity a device pool manages: one chunk
// of the allocation granularity. NewBFC and the pools' Reset panic below
// it.
const MinCapacity = minChunkSize

// ErrOOM is returned (wrapped) when an allocation cannot be satisfied.
// Callers use errors.Is(err, ErrOOM) to detect out-of-memory conditions and
// trigger eviction.
var ErrOOM = errors.New("out of device memory")

// ErrInvariant is the sentinel wrapped by InvariantError. A matching error
// means allocator bookkeeping was violated (double free, cross-allocator
// free) — an executor bug, not a recoverable memory condition.
var ErrInvariant = errors.New("allocator invariant violated")

// InvariantError reports a violated allocator invariant with the
// diagnostics needed to locate the offending allocation.
type InvariantError struct {
	// Allocator is the pool's Name (or "host" for the host arena).
	Allocator string
	// Op is the operation that tripped the invariant, e.g. "free".
	Op string
	// Offset and Size locate the allocation when known.
	Offset, Size int64
	// Detail explains which invariant broke.
	Detail string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("memory: %s %s of allocation at offset %d (size %d): %s",
		e.Allocator, e.Op, e.Offset, e.Size, e.Detail)
}

// Unwrap lets errors.Is(err, ErrInvariant) match.
func (e *InvariantError) Unwrap() error { return ErrInvariant }

// OOMError carries diagnostic detail about a failed allocation.
type OOMError struct {
	Requested int64
	FreeBytes int64
	// LargestFree is the largest contiguous free region. It is meaningful
	// only for device pools; the host arena does not model fragmentation,
	// so host-side errors set Host and leave this zero.
	LargestFree int64
	Capacity    int64
	// Host marks a pinned host-memory failure rather than a device one.
	Host bool
}

func (e *OOMError) Error() string {
	if e.Host {
		return fmt.Sprintf("out of pinned host memory: requested %d bytes, %d free of %d capacity",
			e.Requested, e.FreeBytes, e.Capacity)
	}
	return fmt.Sprintf("out of device memory: requested %d bytes, %d free (largest contiguous %d) of %d capacity",
		e.Requested, e.FreeBytes, e.LargestFree, e.Capacity)
}

// Unwrap lets errors.Is(err, ErrOOM) match.
func (e *OOMError) Unwrap() error { return ErrOOM }

// NewOOMError builds the device-side OOM diagnostic a failed TryAlloc
// elided, sampling the pool's occupancy now.
func NewOOMError(p Pool, requested int64) *OOMError {
	return &OOMError{
		Requested:   requested,
		FreeBytes:   p.FreeBytes(),
		LargestFree: p.LargestFree(),
		Capacity:    p.Capacity(),
	}
}

// Allocation is a live region of device memory. Offset and Size describe
// the rounded chunk actually reserved; Requested is the caller's size.
type Allocation struct {
	Offset    int64
	Size      int64
	Requested int64

	chunk *chunk // BFC bookkeeping; nil for non-BFC allocators
	owner Pool
	freed bool
}

// Pool is the device-allocator interface shared by BFC and FirstFit:
// allocation and free, plus the occupancy reads the executor, the fleet
// and the observability layer take. A pool's accounting, its peak
// included, covers one owner; a pool handed to a new owner is Reset
// (BFC.Reset, FirstFit.Reset) rather than rescoped.
type Pool interface {
	// Alloc reserves size bytes, returning an *OOMError (matching ErrOOM)
	// on failure. Alloc(0) is legal and reserves a minimum-sized chunk.
	Alloc(size int64) (*Allocation, error)
	// TryAlloc is Alloc without the failure diagnostics: it returns nil
	// when the pool cannot satisfy the request, constructing nothing on
	// that path. OOM-driven retry loops (the executor probes the pool
	// between evictions) use it so a failed probe costs no allocation;
	// use NewOOMError to build the structured error when finally giving
	// up.
	TryAlloc(size int64) *Allocation
	// Free releases an allocation. A double free or a free to the wrong
	// allocator returns an *InvariantError (matching ErrInvariant): the
	// simulator's ref-counting must never double-free, and a violation is
	// surfaced as a structured failure rather than a panic. MustFree is
	// the panicking variant for tests and teardown paths.
	Free(a *Allocation) error
	// Used reports the bytes currently reserved by live allocations
	// (rounded chunk sizes).
	Used() int64
	// Capacity reports the total pool size.
	Capacity() int64
	// FreeBytes reports Capacity - Used.
	FreeBytes() int64
	// LargestFree reports the largest contiguous free region.
	LargestFree() int64
	// Peak reports the high-water mark of Used since the pool was
	// created or last Reset.
	Peak() int64
	// Name identifies the allocator for stats and ablation output.
	Name() string
}

// Snapshot is a point-in-time sample of an allocator's occupancy, the
// unit the observability layer records at every allocation event.
type Snapshot struct {
	Used        int64
	Free        int64
	LargestFree int64
}

// FragRatio is the shared fragmentation formula: 1 - largestFree/free,
// clamped to [0, 1]. An empty or fully-free pool (free <= 0 would divide
// by zero) reports 0, and inconsistent inputs (largestFree beyond free,
// or negative) can never push the ratio outside the unit interval — so a
// NaN or a negative "fragmentation" can never leak into profile JSON.
func FragRatio(largestFree, free int64) float64 {
	if free <= 0 {
		return 0
	}
	r := 1 - float64(largestFree)/float64(free)
	switch {
	case r < 0:
		return 0
	case r > 1:
		return 1
	}
	return r
}

// Snap samples a pool. The three reads are not atomic with respect to
// concurrent allocator use, but the simulator mutates each pool from a
// single goroutine, so a snapshot taken between operations is exact.
func Snap(p Pool) Snapshot {
	return Snapshot{Used: p.Used(), Free: p.FreeBytes(), LargestFree: p.LargestFree()}
}

// MustFree releases an allocation and panics on an invariant violation.
// It is the escape hatch for tests and teardown code where a violated
// invariant should abort loudly instead of threading an error.
func MustFree(p Pool, a *Allocation) {
	if err := p.Free(a); err != nil {
		panic(err)
	}
}

// checkFree validates an allocation handed to p.Free and marks it freed.
// It returns the structured invariant violation, if any.
func checkFree(p Pool, al *Allocation) *InvariantError {
	if al == nil {
		return &InvariantError{Allocator: p.Name(), Op: "free", Detail: "Free(nil)"}
	}
	if al.freed {
		return &InvariantError{Allocator: p.Name(), Op: "free", Offset: al.Offset, Size: al.Size, Detail: "double free"}
	}
	if al.owner != p || al.chunk == nil {
		return &InvariantError{Allocator: p.Name(), Op: "free", Offset: al.Offset, Size: al.Size, Detail: "allocation belongs to a different allocator"}
	}
	if !al.chunk.inUse {
		return &InvariantError{Allocator: p.Name(), Op: "free", Offset: al.Offset, Size: al.Size, Detail: "chunk is not in use"}
	}
	al.freed = true
	return nil
}

// Stats summarizes allocator activity.
type Stats struct {
	Allocs      int64
	Frees       int64
	Used        int64
	Peak        int64
	Capacity    int64
	FreeBytes   int64
	LargestFree int64
	// Fragmentation is 1 - LargestFree/FreeBytes (0 when nothing is free).
	Fragmentation float64
}
