package memory

import "fmt"

// FirstFit is a deliberately simple free-list allocator: it scans the chunk
// list from the lowest address and takes the first free chunk large enough.
// It exists for the allocator ablation (DESIGN.md §5) — comparing it with
// BFC shows how much binning matters for fragmentation under the churn of
// swap/recompute schedules.
type FirstFit struct {
	capacity int64
	used     int64
	peak     int64
	head     *chunk
	// spare is a free list of chunk records absorbed by coalescing,
	// singly linked through next (see BFC.newChunk for the aliasing
	// rules around the embedded alloc).
	spare *chunk
}

func (a *FirstFit) newChunk() *chunk {
	c := a.spare
	if c == nil {
		return &chunk{}
	}
	a.spare = c.next
	c.offset, c.size, c.inUse, c.prev, c.next = 0, 0, false, nil, nil
	return c
}

func (a *FirstFit) recycle(c *chunk) {
	c.offset, c.size, c.inUse, c.prev = 0, 0, false, nil
	c.next = a.spare
	a.spare = c
}

var _ Pool = (*FirstFit)(nil)

// Reset readies the allocator to manage capacity bytes, releasing every
// allocation and parking every chunk record on the spare list (see
// BFC.Reset). A zero FirstFit must be Reset before use.
func (a *FirstFit) Reset(capacity int64) {
	capacity = capacity / minChunkSize * minChunkSize
	if capacity < minChunkSize {
		panic(fmt.Sprintf("memory: FirstFit capacity %d below minimum chunk size", capacity))
	}
	for c := a.head; c != nil; {
		next := c.next
		a.recycle(c)
		c = next
	}
	*a = FirstFit{capacity: capacity, spare: a.spare}
	a.head = a.newChunk()
	a.head.size = capacity
}

// Name implements Pool.
func (a *FirstFit) Name() string { return "firstfit" }

// Alloc implements Pool.
func (a *FirstFit) Alloc(size int64) (*Allocation, error) {
	if al := a.TryAlloc(size); al != nil {
		return al, nil
	}
	return nil, NewOOMError(a, size)
}

// TryAlloc implements Pool.
func (a *FirstFit) TryAlloc(size int64) *Allocation {
	rounded := roundUp(size)
	for c := a.head; c != nil; c = c.next {
		if c.inUse || c.size < rounded {
			continue
		}
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
		}
		c.inUse = true
		a.used += c.size
		if a.used > a.peak {
			a.peak = a.used
		}
		c.alloc = Allocation{Offset: c.offset, Size: c.size, Requested: size, chunk: c, owner: a}
		return &c.alloc
	}
	return nil
}

// Free implements Pool.
func (a *FirstFit) Free(al *Allocation) error {
	if ierr := checkFree(a, al); ierr != nil {
		return ierr
	}
	c := al.chunk
	a.used -= c.size
	c.inUse = false
	if n := c.next; n != nil && !n.inUse {
		c.size += n.size
		c.next = n.next
		if n.next != nil {
			n.next.prev = c
		}
		a.recycle(n)
	}
	if p := c.prev; p != nil && !p.inUse {
		p.size += c.size
		p.next = c.next
		if c.next != nil {
			c.next.prev = p
		}
		a.recycle(c)
	}
	return nil
}

// Used implements Pool.
func (a *FirstFit) Used() int64 { return a.used }

// Capacity implements Pool.
func (a *FirstFit) Capacity() int64 { return a.capacity }

// FreeBytes implements Pool.
func (a *FirstFit) FreeBytes() int64 { return a.capacity - a.used }

// Peak implements Pool.
func (a *FirstFit) Peak() int64 { return a.peak }

// LargestFree implements Pool.
func (a *FirstFit) LargestFree() int64 {
	var largest int64
	for c := a.head; c != nil; c = c.next {
		if !c.inUse && c.size > largest {
			largest = c.size
		}
	}
	return largest
}
