package fleet

import (
	"testing"

	"capuchin/internal/hw"
	"capuchin/internal/sim"
)

// BenchmarkHotPathEventQueue cycles the scheduler's event heap. The
// hand-rolled heap moves concrete event values — no container/heap
// interface boxing — so a warm push/pop cycle must not allocate.
func BenchmarkHotPathEventQueue(b *testing.B) {
	q := newEventQueue()
	j := &Job{ID: 1}
	cycle := func() {
		for i := 0; i < 8; i++ {
			q.push(sim.Time(i*13%7), evComplete, j, j.gen)
		}
		for {
			if _, ok := q.pop(); !ok {
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

// BenchmarkHotPathFleetPlace cycles worst-fit placement over 32 devices
// with uneven free space: a placement that fits, its release, and one
// that fits nowhere. Admission reads each device's largest free chunk
// once and probes with TryAlloc, so neither outcome may allocate.
func BenchmarkHotPathFleetPlace(b *testing.B) {
	const devices = 32
	caps := make([]int64, devices)
	for i := range caps {
		caps[i] = 16 * hw.GiB
	}
	f := placeFleet(caps)
	for i, d := range f.devs {
		// Residents of varying size leave every device a different
		// largest free chunk.
		if d.pool.TryAlloc(int64(1+i%7)*hw.GiB) == nil {
			b.Fatal("seeding resident failed")
		}
	}
	j := &Job{ID: 1, Device: -1}
	cycle := func() {
		dev := f.place(j, 4*hw.GiB)
		if dev < 0 {
			b.Fatal("placement that fits failed")
		}
		j.Device = dev
		f.releaseAllocs(j)
		j.Device = -1
		if f.place(j, 16*hw.GiB) >= 0 {
			b.Fatal("placement larger than any free chunk succeeded")
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
