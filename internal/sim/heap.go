package sim

// Heap is a binary min-heap of values ordered by an (at, seq) key: the
// earliest at first, and among equal at the smallest seq. It is the one
// time-ordered queue of the simulator. Executor swap-outs complete
// through it (memory freed by a swap-out becomes visible to the
// allocator only once its entry pops, which is Capuchin's decoupled
// computation/swapping), and the fleet's discrete-event loop runs on it.
//
// Entries are stored by value in a plain slice, so a warm Push/Pop cycle
// does not allocate. The sifts are container/heap's, so entries whose
// keys tie pop in exactly the order the library heap would pop them:
// callers that push with a constant seq get container/heap's
// heap-position tie order (the executor's pending-free order), and
// callers that push an insertion counter get a total FIFO order among
// ties.
type Heap[T any] struct {
	h []heapEntry[T]
}

type heapEntry[T any] struct {
	at  Time
	seq int64
	v   T
}

// Push adds v under the key (at, seq).
func (h *Heap[T]) Push(at Time, seq int64, v T) {
	h.h = append(h.h, heapEntry[T]{at: at, seq: seq, v: v})
	h.up(len(h.h) - 1)
}

// Len reports the number of entries.
func (h *Heap[T]) Len() int { return len(h.h) }

// Peek returns the earliest entry without removing it. The boolean is
// false when the heap is empty.
func (h *Heap[T]) Peek() (Time, T, bool) {
	if len(h.h) == 0 {
		var zero T
		return 0, zero, false
	}
	return h.h[0].at, h.h[0].v, true
}

// Pop removes and returns the earliest entry. The boolean is false when
// the heap is empty.
func (h *Heap[T]) Pop() (Time, T, bool) {
	n := len(h.h) - 1
	if n < 0 {
		var zero T
		return 0, zero, false
	}
	h.h[0], h.h[n] = h.h[n], h.h[0]
	h.down(0, n)
	e := h.h[n]
	h.h[n] = heapEntry[T]{} // drop any reference held past the pop
	h.h = h.h[:n]
	return e.at, e.v, true
}

func (h *Heap[T]) less(i, j int) bool {
	a, b := &h.h[i], &h.h[j]
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// up is container/heap's sift-up.
func (h *Heap[T]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.h[i], h.h[j] = h.h[j], h.h[i]
		j = i
	}
}

// down is container/heap's sift-down over h.h[:n].
func (h *Heap[T]) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.h[i], h.h[j] = h.h[j], h.h[i]
		i = j
	}
}
