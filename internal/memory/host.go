package memory

import "fmt"

// HostArena models the pinned CPU memory that receives swapped-out tensors.
// Pinned host memory is plentiful relative to device memory (the paper's
// testbed has 256 GB of DRAM against a 16 GB GPU) but not unlimited, so the
// arena enforces a capacity and tracks a high-water mark. Host allocations
// do not fragment in the simulation: staging buffers are transient and the
// paper's mechanism never depends on host layout, so simple counters
// suffice.
//
// Reservations are keyed by dense tensor index (tensor.Idx), so
// steady-state swap traffic never hashes ID strings; the tensor's ID
// travels along only to name it in errors. A zero HostArena must be Reset
// before use.
type HostArena struct {
	capacity int64
	used     int64
	peak     int64
	idxBytes []int64
	idxOn    []bool
}

// Reset readies the arena to pin capacity bytes, releasing every
// reservation but keeping the index tables' backing arrays.
func (h *HostArena) Reset(capacity int64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("memory: host arena capacity %d must be positive", capacity))
	}
	clear(h.idxBytes)
	clear(h.idxOn)
	*h = HostArena{capacity: capacity, idxBytes: h.idxBytes, idxOn: h.idxOn}
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
// nothing. It returns an *OOMError with Host set (matching ErrOOM) when
// the arena is exhausted, and an error when size is negative or i
// already holds a reservation.
func (h *HostArena) ReserveIdx(i int, key string, size int64) error {
	if size < 0 {
		return fmt.Errorf("memory: negative host reservation %d for %q", size, key)
	}
	h.grow(i)
	if h.idxOn[i] {
		return fmt.Errorf("memory: duplicate host reservation for %q", key)
	}
	if h.used+size > h.capacity {
		// The arena is counter-based and does not model fragmentation, so
		// there is no meaningful "largest contiguous" figure to report;
		// Host routes Error() to the host-specific message without one.
		return &OOMError{Requested: size, FreeBytes: h.capacity - h.used, Capacity: h.capacity, Host: true}
	}
	h.idxOn[i] = true
	h.idxBytes[i] = size
	h.used += size
	if h.used > h.peak {
		h.peak = h.used
	}
	return nil
}

// ReleaseIdx frees the reservation held under index i; key names the
// tensor in the error on an absent reservation. Releasing an absent
// index is an error: it would mean the executor lost track of a swapped
// tensor.
func (h *HostArena) ReleaseIdx(i int, key string) error {
	if i >= len(h.idxOn) || !h.idxOn[i] {
		return fmt.Errorf("memory: release of unknown host reservation %q", key)
	}
	h.idxOn[i] = false
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

// Capacity reports the arena size.
func (h *HostArena) Capacity() int64 { return h.capacity }
