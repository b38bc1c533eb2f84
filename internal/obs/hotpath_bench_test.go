package obs

import "testing"

// BenchmarkHotPathCollectorEmit pins the span-recording path every traced
// run takes: Emit writes in place under the lock and checks for an armed
// reader. It allocates one chunk per eventChunk events and never copies
// recorded events, and no wake channel exists unless a reader asked for
// one.
func BenchmarkHotPathCollectorEmit(b *testing.B) {
	c := NewCollector()
	ev := Event{Kind: KindInstant, Cat: "alloc", Name: "hotpath"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Emit(ev)
	}
}

// BenchmarkCollectorRunLog records one run-sized log per op into a fresh
// Collector: 4,506 events, the mean of a serve-menu run, so ns/op and
// B/op are the cost of recording one run's history.
func BenchmarkCollectorRunLog(b *testing.B) {
	ev := Event{Kind: KindSpan, Cat: "kernel", Name: "conv1", Lane: "compute", Start: 1, End: 2, Tensor: "conv1:0", Bytes: 1 << 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewCollector()
		for j := 0; j < 4506; j++ {
			c.Emit(ev)
		}
		sinkCollector = c
	}
}

var sinkCollector *Collector
