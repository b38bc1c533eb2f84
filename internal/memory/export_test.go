package memory

// NewFirstFit creates a first-fit allocator managing capacity bytes.
func NewFirstFit(capacity int64) *FirstFit {
	a := &FirstFit{}
	a.Reset(capacity)
	return a
}

// NewHostArena creates a pinned-memory arena of the given capacity.
func NewHostArena(capacity int64) *HostArena {
	h := &HostArena{}
	h.Reset(capacity)
	return h
}

// Live reports the number of live reservations.
func (h *HostArena) Live() int {
	n := 0
	for _, on := range h.idxOn {
		if on {
			n++
		}
	}
	return n
}
