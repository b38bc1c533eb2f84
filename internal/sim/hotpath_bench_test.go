package sim

import "testing"

// BenchmarkHotPathPendingSet drives the heap through push/pop cycles
// shaped like the executor's pending frees. Entries are values in a
// plain slice, so once capacity is warm the cycle must be
// allocation-free.
func BenchmarkHotPathPendingSet(b *testing.B) {
	var h Heap[string]
	cycle := func() {
		for i := 0; i < 8; i++ {
			h.Push(Time(i*37%5), 0, "t")
		}
		for {
			if _, _, ok := h.Pop(); !ok {
				break
			}
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkHotPathPendingPopDue exercises the executor's Peek/Pop drain
// of every entry due by a deadline.
func BenchmarkHotPathPendingPopDue(b *testing.B) {
	var h Heap[string]
	cycle := func() {
		for i := 0; i < 8; i++ {
			h.Push(Time(i), 0, "t")
		}
		for {
			at, _, ok := h.Peek()
			if !ok || at > 8 {
				break
			}
			h.Pop()
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkHotPathStreamRun times stream occupancy bookkeeping — the
// per-op cost every simulated kernel launch pays. A stream keeps no
// spans, so nothing may be retained.
func BenchmarkHotPathStreamRun(b *testing.B) {
	st := NewStream("compute")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Run(Time(i), Microsecond)
	}
}
