package core

import (
	"cmp"

	"capuchin/internal/bufs"
)

// tourney is a tournament tree over the slots 0..n-1, each holding a key
// or nothing. top returns the slot with the least key, the lowest slot
// among equal keys, in O(1); set and drop update a slot in O(log n).
type tourney[K cmp.Ordered] struct {
	keys []K
	// win holds each subtree's winning slot, -1 for an empty subtree:
	// win[1] is the root, win[j]'s children are win[2j] and win[2j+1],
	// and slot i's leaf is win[len(win)/2+i].
	win []int32
}

// reset empties t into a tree over n slots, reusing its arrays.
func (t *tourney[K]) reset(n int) {
	size := 1
	for size < n {
		size *= 2
	}
	t.keys = bufs.Resized(t.keys, n)
	t.win = bufs.Resized(t.win, 2*size)
	for j := range t.win {
		t.win[j] = -1
	}
}

// place gives slot i key k without updating the winners; build updates
// them all once the slots are placed.
func (t *tourney[K]) place(i int32, k K) {
	t.keys[i] = k
	t.win[len(t.win)/2+int(i)] = i
}

// build computes every subtree's winner from the placed slots.
func (t *tourney[K]) build() {
	for j := len(t.win)/2 - 1; j > 0; j-- {
		t.win[j] = t.better(t.win[2*j], t.win[2*j+1])
	}
}

// set gives slot i key k.
func (t *tourney[K]) set(i int32, k K) {
	t.keys[i] = k
	t.fix(i, i)
}

// drop empties slot i.
func (t *tourney[K]) drop(i int32) { t.fix(i, -1) }

// fix makes slot i's leaf leaf and updates the winners above it.
func (t *tourney[K]) fix(i, leaf int32) {
	j := len(t.win)/2 + int(i)
	t.win[j] = leaf
	for j /= 2; j > 0; j /= 2 {
		t.win[j] = t.better(t.win[2*j], t.win[2*j+1])
	}
}

// top returns the winning slot, or -1 when every slot is empty.
func (t *tourney[K]) top() int32 { return t.win[1] }

// better returns the winner of a from a left subtree and b from the
// right one: a holds the lower slot, so it wins ties.
func (t *tourney[K]) better(a, b int32) int32 {
	if a < 0 || (b >= 0 && t.keys[b] < t.keys[a]) {
		return b
	}
	return a
}
