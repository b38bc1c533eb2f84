package fleet

import (
	"testing"

	"capuchin/internal/hw"
	"capuchin/internal/sim"
)

// BenchmarkHotPathEventQueue cycles the scheduler's event heap. sim.Heap
// moves concrete event values — no container/heap interface boxing — so
// a warm push/pop cycle must not allocate.
func BenchmarkHotPathEventQueue(b *testing.B) {
	q := &eventQueue{}
	j := &Job{ID: 1}
	cycle := func() {
		for i := 0; i < 8; i++ {
			q.push(sim.Time(i*13%7), evComplete, j, j.gen)
		}
		for {
			if _, _, ok := q.Pop(); !ok {
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
// that fits nowhere. Admission rescans the devices' largest free chunks
// after each pool change and probes with TryAlloc, so neither outcome
// may allocate.
func BenchmarkHotPathFleetPlace(b *testing.B) {
	const devices = 32
	caps := make([]int64, devices)
	for i := range caps {
		caps[i] = 16 * hw.GiB
	}
	f := placeFleet(caps)
	for i := range f.devs {
		// Residents of varying size leave every device a different
		// largest free chunk. They go through allocOn, which keeps
		// place's cached argmax current.
		if !f.allocOn(i, &Job{ID: 2 + i, Device: i}, int64(1+i%7)*hw.GiB) {
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

// BenchmarkHotPathFleetDrain drains a queue of HIGH jobs against 32
// devices that CRITICAL residents fill to the last byte: every try
// passes its band, is refused by place without a probe, and finds
// nothing preemptFor may evict. Nothing changes between tries, so a
// drain must not allocate.
func BenchmarkHotPathFleetDrain(b *testing.B) {
	const devices = 32
	caps := make([]int64, devices)
	for i := range caps {
		caps[i] = 16 * hw.GiB
	}
	f := admissionFleet(caps, ManagerNone)
	for i := range f.devs {
		resident := &Job{ID: i, Class: Critical, Device: i}
		if !f.allocOn(i, resident, caps[i]) {
			b.Fatal("seeding resident failed")
		}
		f.devs[i].jobs[resident.ID] = resident
	}
	for i := 0; i < 4*devices; i++ {
		f.queueInsert(&Job{ID: devices + i, Class: High, Device: -1, Predicted: int64(1+i%8) * hw.GiB})
	}
	f.drainQueue()
	if len(f.queued) != 4*devices {
		b.Fatalf("drain admitted %d jobs into a full fleet", 4*devices-len(f.queued))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.drainQueue()
	}
}
