package models

import "testing"

// FuzzNewSchedule feeds arbitrary kinds, models, batches, seeds and
// periods to NewSchedule, which serve requests and CLI flags reach. It
// must never panic, and every schedule it accepts must keep the
// iteration-0 anchor: the whole first period runs the base shape, so the
// measured iteration and MaxBatch probes describe the requested batch.
// Later iterations must stay on a positive batch.
func FuzzNewSchedule(f *testing.F) {
	for _, kind := range ScheduleKinds() {
		f.Add(kind, uint8(0), int64(32), uint64(1), 2)
	}
	f.Add(ScheduleMixed, uint8(1), int64(1), uint64(42), 0)
	f.Add(ScheduleBatch, uint8(2), int64(1)<<62, uint64(7), -3)
	f.Add(ScheduleSeq, uint8(3), int64(-1), uint64(0), 1<<30)
	f.Add("wobble", uint8(4), int64(8), uint64(0), 2)
	names := Names()
	f.Fuzz(func(t *testing.T, kind string, model uint8, batch int64, seed uint64, period int) {
		spec, err := Get(names[int(model)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		sc, err := NewSchedule(kind, spec, batch, seed, period)
		if err != nil {
			return
		}
		anchor := period
		if anchor <= 0 {
			anchor = 2
		}
		for iter := 0; iter < 64; iter++ {
			b, s := sc.At(iter)
			if iter < anchor && (b != batch || s != spec.DefaultSeq) {
				t.Fatalf("%s/%s batch %d period %d: iteration %d runs (%d,%d), want the anchor (%d,%d)",
					spec.Name, kind, batch, period, iter, b, s, batch, spec.DefaultSeq)
			}
			if b < 1 || s < 0 {
				t.Fatalf("%s/%s batch %d seed %d: iteration %d runs (%d,%d)",
					spec.Name, kind, batch, seed, iter, b, s)
			}
		}
	})
}
