package memory

import (
	"fmt"
	"math/bits"
)

const (
	// minChunkSize is the allocation granularity: all chunk sizes are
	// multiples of 256 bytes, matching TensorFlow's BFC allocator.
	minChunkSize = 256
	// numBins covers chunk sizes from 256 B to beyond 64 GiB.
	numBins = 30
)

// chunk is a contiguous region of the device address space, either in use
// or free. Chunks form a doubly-linked list ordered by offset; adjacent
// free chunks are always coalesced, so two free chunks are never neighbours.
type chunk struct {
	offset    int64
	size      int64 // rounded size, multiple of minChunkSize
	requested int64 // caller-requested size when in use
	inUse     bool
	prev      *chunk
	next      *chunk
	// alloc is the Allocation handle returned while the chunk is in use,
	// embedded so Alloc never heap-allocates a handle. A chunk absorbed by
	// coalescing is parked on the allocator's spare list and reused by the
	// next split, so steady-state alloc/free cycles allocate nothing.
	alloc Allocation
}

// bin holds the free chunks of one size class, ordered by (size, offset) so
// the first fitting chunk found is the best fit at the lowest address.
type bin struct {
	free []*chunk
}

// rank returns the first index whose chunk orders at or after c by
// (size, offset). The binary search is hand-rolled: this runs on every
// alloc and free, and sort.Search's closure call is measurable there.
func (b *bin) rank(c *chunk) int {
	lo, hi := 0, len(b.free)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		f := b.free[mid]
		if f.size > c.size || (f.size == c.size && f.offset >= c.offset) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (b *bin) insert(c *chunk) {
	i := b.rank(c)
	b.free = append(b.free, nil)
	copy(b.free[i+1:], b.free[i:])
	b.free[i] = c
}

func (b *bin) remove(c *chunk) bool {
	i := b.rank(c)
	if i < len(b.free) && b.free[i] == c {
		b.free = append(b.free[:i], b.free[i+1:]...)
		return true
	}
	return false
}

// bestFit returns the smallest chunk in the bin with size >= want, or nil.
func (b *bin) bestFit(want int64) *chunk {
	lo, hi := 0, len(b.free)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.free[mid].size >= want {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(b.free) {
		return b.free[lo]
	}
	return nil
}

// BFC is a best-fit-with-coalescing allocator over a single device region.
type BFC struct {
	capacity int64
	used     int64 // sum of chunk sizes in use
	reqUsed  int64 // sum of requested sizes in use
	peak     int64
	allocs   int64
	frees    int64
	head     *chunk
	bins     [numBins]bin
	// nonEmpty has bit i set iff bins[i] holds a free chunk, so the
	// largest free chunk and the first candidate bin for a request are
	// one bit scan away. insertFree and removeFree keep it current.
	nonEmpty uint32
	// spare is a free list of chunk records absorbed by coalescing,
	// singly linked through next, reused by newChunk.
	spare *chunk
}

// newChunk returns a reset chunk record, reusing a spare one when
// available. The embedded alloc is deliberately left untouched: a stale
// freed handle may still point at it, and preserving its freed flag keeps
// double-free detection intact until the chunk is actually re-allocated.
func (a *BFC) newChunk() *chunk {
	c := a.spare
	if c == nil {
		return &chunk{}
	}
	a.spare = c.next
	c.offset, c.size, c.requested, c.inUse, c.prev, c.next = 0, 0, 0, false, nil, nil
	return c
}

// recycle parks an absorbed chunk record on the spare list, linked through
// next. The embedded alloc keeps its state (see newChunk).
func (a *BFC) recycle(c *chunk) {
	c.offset, c.size, c.requested, c.inUse, c.prev = 0, 0, 0, false, nil
	c.next = a.spare
	a.spare = c
}

var _ Pool = (*BFC)(nil)

// NewBFC creates an allocator managing capacity bytes of device memory.
// The capacity is rounded down to the allocation granularity.
func NewBFC(capacity int64) *BFC {
	capacity = capacity / minChunkSize * minChunkSize
	if capacity < minChunkSize {
		panic(fmt.Sprintf("memory: BFC capacity %d below minimum chunk size", capacity))
	}
	a := &BFC{capacity: capacity}
	a.head = &chunk{offset: 0, size: capacity}
	a.insertFree(a.head)
	return a
}

// Name implements Pool.
func (a *BFC) Name() string { return "bfc" }

// binIndex maps a size to its bin: bin i holds chunks in
// [256*2^i, 256*2^(i+1)).
func binIndex(size int64) int {
	s := size / minChunkSize
	if s <= 1 {
		return 0
	}
	i := bits.Len64(uint64(s)) - 1
	if i > numBins-1 {
		i = numBins - 1
	}
	return i
}

// insertFree files a free chunk in its size bin and marks the bin
// occupied.
func (a *BFC) insertFree(c *chunk) {
	i := binIndex(c.size)
	a.bins[i].insert(c)
	a.nonEmpty |= 1 << i
}

// removeFree takes a free chunk out of its size bin, clearing the bin's
// bit when it empties.
func (a *BFC) removeFree(c *chunk) {
	i := binIndex(c.size)
	b := &a.bins[i]
	b.remove(c)
	if len(b.free) == 0 {
		a.nonEmpty &^= 1 << i
	}
}

func roundUp(size int64) int64 {
	if size <= 0 {
		return minChunkSize
	}
	return (size + minChunkSize - 1) / minChunkSize * minChunkSize
}

// Alloc implements Pool.
func (a *BFC) Alloc(size int64) (*Allocation, error) {
	if al := a.TryAlloc(size); al != nil {
		return al, nil
	}
	return nil, NewOOMError(a, size)
}

// TryAlloc implements Pool.
func (a *BFC) TryAlloc(size int64) *Allocation {
	rounded := roundUp(size)
	c := a.findChunk(rounded)
	if c == nil {
		return nil
	}
	a.removeFree(c)
	// Split when the remainder is itself a usable chunk.
	if c.size-rounded >= minChunkSize {
		rest := a.newChunk()
		rest.offset = c.offset + rounded
		rest.size = c.size - rounded
		rest.prev = c
		rest.next = c.next
		if c.next != nil {
			c.next.prev = rest
		}
		c.next = rest
		c.size = rounded
		a.insertFree(rest)
	}
	c.inUse = true
	c.requested = size
	a.used += c.size
	a.reqUsed += size
	if a.used > a.peak {
		a.peak = a.used
	}
	a.allocs++
	c.alloc = Allocation{
		Offset:    c.offset,
		Size:      c.size,
		Requested: size,
		chunk:     c,
		owner:     a,
	}
	return &c.alloc
}

// findChunk searches the bin for rounded and all larger non-empty bins
// for the best-fitting free chunk.
func (a *BFC) findChunk(rounded int64) *chunk {
	i := binIndex(rounded)
	for m := a.nonEmpty >> i << i; m != 0; m &= m - 1 {
		if c := a.bins[bits.TrailingZeros32(m)].bestFit(rounded); c != nil {
			return c
		}
	}
	return nil
}

// Free implements Pool.
func (a *BFC) Free(al *Allocation) error {
	if ierr := checkFree(a, al); ierr != nil {
		return ierr
	}
	c := al.chunk
	a.used -= c.size
	a.reqUsed -= c.requested
	a.frees++
	c.inUse = false
	c.requested = 0
	// Coalesce with a free successor.
	if n := c.next; n != nil && !n.inUse {
		a.removeFree(n)
		c.size += n.size
		c.next = n.next
		if n.next != nil {
			n.next.prev = c
		}
		a.recycle(n)
	}
	// Coalesce with a free predecessor.
	if p := c.prev; p != nil && !p.inUse {
		a.removeFree(p)
		p.size += c.size
		p.next = c.next
		if c.next != nil {
			c.next.prev = p
		}
		a.recycle(c)
		c = p
	}
	a.insertFree(c)
	return nil
}

// Used implements Pool.
func (a *BFC) Used() int64 { return a.used }

// InUseRequested implements Pool.
func (a *BFC) InUseRequested() int64 { return a.reqUsed }

// Capacity implements Pool.
func (a *BFC) Capacity() int64 { return a.capacity }

// FreeBytes implements Pool.
func (a *BFC) FreeBytes() int64 { return a.capacity - a.used }

// Peak implements Pool.
func (a *BFC) Peak() int64 { return a.peak }

// ResetPeak implements Pool: the high-water mark restarts from the bytes
// currently reserved, not from zero, because live allocations still count
// against whatever job observes the pool next.
func (a *BFC) ResetPeak() { a.peak = a.used }

// LargestFree implements Pool. It is O(1): the highest occupied bin
// holds the largest chunk, and bins are sorted by size, so it is last.
func (a *BFC) LargestFree() int64 {
	if a.nonEmpty == 0 {
		return 0
	}
	free := a.bins[bits.Len32(a.nonEmpty)-1].free
	return free[len(free)-1].size
}

// Stats returns a snapshot of allocator statistics.
func (a *BFC) Stats() Stats { return collectStats(a, a.allocs, a.frees) }

// BinOccupancy describes one size class of the allocator.
type BinOccupancy struct {
	// Bin index; bin i holds chunks in [256*2^i, 256*2^(i+1)).
	Bin int
	// MinSize is the smallest size the bin serves.
	MinSize int64
	// FreeChunks and FreeBytes describe the bin's free list.
	FreeChunks int
	FreeBytes  int64
}

// Bins returns the occupancy of every non-empty bin, smallest first — a
// fragmentation diagnostic for OOM analysis.
func (a *BFC) Bins() []BinOccupancy {
	var out []BinOccupancy
	for i := range a.bins {
		if len(a.bins[i].free) == 0 {
			continue
		}
		occ := BinOccupancy{Bin: i, MinSize: minChunkSize << i, FreeChunks: len(a.bins[i].free)}
		for _, c := range a.bins[i].free {
			occ.FreeBytes += c.size
		}
		out = append(out, occ)
	}
	return out
}

// CheckInvariants validates the internal structure: the chunk list tiles
// the region exactly, no two free neighbours exist, every free chunk is in
// exactly its size bin, the occupied-bin mask matches the bins, and
// accounting matches. It is used by the property
// tests and is O(capacity/minChunkSize) in the worst case.
func (a *BFC) CheckInvariants() error {
	var offset, used, freeListed int64
	prevFree := false
	for c := a.head; c != nil; c = c.next {
		if c.offset != offset {
			return fmt.Errorf("chunk at offset %d, expected %d (gap or overlap)", c.offset, offset)
		}
		if c.size <= 0 || c.size%minChunkSize != 0 {
			return fmt.Errorf("chunk at %d has invalid size %d", c.offset, c.size)
		}
		if c.next != nil && c.next.prev != c {
			return fmt.Errorf("broken back-link at offset %d", c.offset)
		}
		if c.inUse {
			used += c.size
			prevFree = false
		} else {
			if prevFree {
				return fmt.Errorf("uncoalesced free neighbours at offset %d", c.offset)
			}
			prevFree = true
			found := false
			for _, f := range a.bins[binIndex(c.size)].free {
				if f == c {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("free chunk at %d (size %d) missing from bin %d", c.offset, c.size, binIndex(c.size))
			}
		}
		offset += c.size
	}
	if offset != a.capacity {
		return fmt.Errorf("chunks cover %d bytes, capacity is %d", offset, a.capacity)
	}
	if used != a.used {
		return fmt.Errorf("accounted used %d != chunk-sum used %d", a.used, used)
	}
	for i := range a.bins {
		if occupied := a.nonEmpty&(1<<i) != 0; occupied != (len(a.bins[i].free) > 0) {
			return fmt.Errorf("bin %d holds %d free chunks but its nonEmpty bit is %v", i, len(a.bins[i].free), occupied)
		}
		for _, f := range a.bins[i].free {
			if f.inUse {
				return fmt.Errorf("in-use chunk at %d present in bin %d", f.offset, i)
			}
			if binIndex(f.size) != i {
				return fmt.Errorf("chunk of size %d in wrong bin %d", f.size, i)
			}
			freeListed += f.size
		}
	}
	if freeListed != a.capacity-a.used {
		return fmt.Errorf("bins hold %d free bytes, expected %d", freeListed, a.capacity-a.used)
	}
	return nil
}
