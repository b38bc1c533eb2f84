package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEntry and refHeap are the container/heap reference Heap must match
// pop for pop.
type refEntry struct {
	at  Time
	seq int64
	id  int
}

type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestHeapTieOrderDifferential replays seeded push/pop tapes with heavily
// tied times through Heap and container/heap. Each pushed value is
// unique, so equal pop sequences mean ties resolve identically. With seq
// always 0 the tie order is container/heap's heap-position order — the
// executor's pending-free order, which no golden pins; with seq from a
// counter it is insertion order — the fleet's event order.
func TestHeapTieOrderDifferential(t *testing.T) {
	for _, mode := range []struct {
		name    string
		counter bool
	}{{"seq-zero", false}, {"seq-counter", true}} {
		t.Run(mode.name, func(t *testing.T) {
			for trial := 0; trial < 300; trial++ {
				rng := rand.New(rand.NewSource(int64(trial)))
				var impl Heap[int]
				var ref refHeap
				var seq int64
				next := 0
				check := func(op int) bool {
					gotAt, got, gotOK := impl.Pop()
					wantOK := ref.Len() > 0
					if gotOK != wantOK {
						t.Fatalf("trial %d op %d: pop ok impl=%v ref=%v", trial, op, gotOK, wantOK)
					}
					if !gotOK {
						return false
					}
					want := heap.Pop(&ref).(refEntry)
					if gotAt != want.at || got != want.id {
						t.Fatalf("trial %d op %d: impl popped (%v, %d), ref (%v, %d)",
							trial, op, gotAt, got, want.at, want.id)
					}
					return true
				}
				ops := 1 + rng.Intn(400)
				for op := 0; op < ops; op++ {
					if rng.Intn(10) < 6 {
						at := Time(rng.Intn(6)) // few distinct times: many ties
						e := refEntry{at: at, id: next}
						if mode.counter {
							e.seq = seq
							seq++
						}
						impl.Push(e.at, e.seq, e.id)
						heap.Push(&ref, e)
						next++
						continue
					}
					if at, v, ok := impl.Peek(); ok && (at != ref[0].at || v != ref[0].id) {
						t.Fatalf("trial %d op %d: Peek (%v, %d), ref root (%v, %d)", trial, op, at, v, ref[0].at, ref[0].id)
					}
					check(op)
				}
				for check(ops) {
				}
				if impl.Len() != 0 {
					t.Fatalf("trial %d: heap reports %d after drain", trial, impl.Len())
				}
			}
		})
	}
}
