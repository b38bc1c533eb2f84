package memory

import "fmt"

// HostArena models the pinned CPU memory that receives swapped-out tensors.
// Pinned host memory is plentiful relative to device memory (the paper's
// testbed has 256 GB of DRAM against a 16 GB GPU) but not unlimited, so the
// arena enforces a capacity and tracks a high-water mark. Host allocations
// do not fragment in the simulation: staging buffers are transient and the
// paper's mechanism never depends on host layout, so simple counters
// suffice.
type HostArena struct {
	capacity int64
	used     int64
	peak     int64
	live     map[string]int64 // key (tensor ID) -> bytes
	// Index-keyed reservations: the executor keys by dense tensor index
	// (tensor.Idx) so steady-state swap traffic never hashes ID strings.
	// Both keyspaces share the same byte accounting; a caller must use one
	// keyspace per reservation.
	idxBytes []int64
	idxOn    []bool
	idxLive  int
}

// NewHostArena creates a pinned-memory arena of the given capacity.
func NewHostArena(capacity int64) *HostArena {
	h := &HostArena{}
	h.Reset(capacity)
	return h
}

// Reset returns the arena to the state NewHostArena(capacity) creates,
// releasing every reservation but keeping the index-keyed tables'
// backing arrays.
func (h *HostArena) Reset(capacity int64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("memory: host arena capacity %d must be positive", capacity))
	}
	if h.live == nil {
		h.live = make(map[string]int64)
	}
	clear(h.live)
	clear(h.idxBytes)
	clear(h.idxOn)
	*h = HostArena{capacity: capacity, live: h.live, idxBytes: h.idxBytes, idxOn: h.idxOn}
}

// Reserve pins size bytes for the given key (typically a tensor ID). It
// returns a wrapped ErrOOM when the arena is exhausted and an error when the
// key already holds a reservation.
func (h *HostArena) Reserve(key string, size int64) error {
	if size < 0 {
		return fmt.Errorf("memory: negative host reservation %d for %q", size, key)
	}
	if _, ok := h.live[key]; ok {
		return fmt.Errorf("memory: duplicate host reservation for %q", key)
	}
	if h.used+size > h.capacity {
		// The arena is counter-based and does not model fragmentation, so
		// there is no meaningful "largest contiguous" figure to report;
		// Host routes Error() to the host-specific message without one.
		return &OOMError{Requested: size, FreeBytes: h.capacity - h.used, Capacity: h.capacity, Host: true}
	}
	h.live[key] = size
	h.used += size
	if h.used > h.peak {
		h.peak = h.used
	}
	return nil
}

// Release frees the reservation held by key. Releasing an absent key is an
// error: it would mean the executor lost track of a swapped tensor.
func (h *HostArena) Release(key string) error {
	size, ok := h.live[key]
	if !ok {
		return fmt.Errorf("memory: release of unknown host reservation %q", key)
	}
	delete(h.live, key)
	h.used -= size
	return nil
}

// Holds reports whether key currently has a reservation.
func (h *HostArena) Holds(key string) bool {
	_, ok := h.live[key]
	return ok
}

// grow ensures the index-keyed tables cover index i.
func (h *HostArena) grow(i int) {
	for len(h.idxBytes) <= i {
		h.idxBytes = append(h.idxBytes, 0)
		h.idxOn = append(h.idxOn, false)
	}
}

// ReserveIdx pins size bytes under dense index i. key is used only for
// error messages (it names the tensor), so the happy path allocates
// nothing. Semantics match Reserve exactly.
func (h *HostArena) ReserveIdx(i int, key string, size int64) error {
	if size < 0 {
		return fmt.Errorf("memory: negative host reservation %d for %q", size, key)
	}
	h.grow(i)
	if h.idxOn[i] {
		return fmt.Errorf("memory: duplicate host reservation for %q", key)
	}
	if h.used+size > h.capacity {
		return &OOMError{Requested: size, FreeBytes: h.capacity - h.used, Capacity: h.capacity, Host: true}
	}
	h.idxOn[i] = true
	h.idxBytes[i] = size
	h.idxLive++
	h.used += size
	if h.used > h.peak {
		h.peak = h.used
	}
	return nil
}

// ReleaseIdx frees the reservation held under index i; key names the
// tensor in the error on an absent reservation.
func (h *HostArena) ReleaseIdx(i int, key string) error {
	if i >= len(h.idxOn) || !h.idxOn[i] {
		return fmt.Errorf("memory: release of unknown host reservation %q", key)
	}
	h.idxOn[i] = false
	h.idxLive--
	h.used -= h.idxBytes[i]
	h.idxBytes[i] = 0
	return nil
}

// HoldsIdx reports whether index i currently has a reservation.
func (h *HostArena) HoldsIdx(i int) bool {
	return i < len(h.idxOn) && h.idxOn[i]
}

// Used reports the pinned bytes currently reserved.
func (h *HostArena) Used() int64 { return h.used }

// Peak reports the high-water mark of Used.
func (h *HostArena) Peak() int64 { return h.peak }

// ResetPeak rescopes the high-water mark to the bytes currently reserved,
// mirroring Pool.ResetPeak for sequential jobs sharing the staging arena.
func (h *HostArena) ResetPeak() { h.peak = h.used }

// Capacity reports the arena size.
func (h *HostArena) Capacity() int64 { return h.capacity }

// Live reports the number of live reservations.
func (h *HostArena) Live() int { return len(h.live) + h.idxLive }
