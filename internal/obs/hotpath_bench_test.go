package obs

import "testing"

// BenchmarkHotPathCollectorEmit pins the span-recording path every traced
// run takes: Emit appends under the lock and checks for an armed reader,
// and allocates nothing beyond the log's amortized growth — no wake
// channel exists unless a reader asked for one.
func BenchmarkHotPathCollectorEmit(b *testing.B) {
	c := NewCollector()
	ev := Event{Kind: KindInstant, Cat: "alloc", Name: "hotpath"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Emit(ev)
	}
}
