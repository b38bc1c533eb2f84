package fleet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"

	"capuchin/internal/sim"
)

// refHeap is the container/heap reference for the fleet's event queue;
// the property test replays identical operation tapes through both and
// demands identical pop sequences.
type refEntry struct {
	at  sim.Time
	seq int
	ev  event
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

type refQueue struct {
	h   refHeap
	seq int
}

func (q *refQueue) push(at sim.Time, kind eventKind, j *Job, gen int) {
	heap.Push(&q.h, refEntry{at: at, seq: q.seq, ev: event{kind: kind, job: j, gen: gen}})
	q.seq++
}

func (q *refQueue) pop() (sim.Time, event, bool) {
	if len(q.h) == 0 {
		return 0, event{}, false
	}
	e := heap.Pop(&q.h).(refEntry)
	return e.at, e.ev, true
}

// TestEventQueuePropertyDifferential drives the fleet's eventQueue
// and the container/heap reference with randomized tapes of pushes
// (heavy timestamp ties to stress the seq tie-break), pops, and
// generation bumps, checking that both return the same events in the
// same order and make the same stale-event drop decisions.
func TestEventQueuePropertyDifferential(t *testing.T) {
	kinds := []eventKind{evArrive, evProfiled, evPeak, evComplete, evRequeue}
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		impl := &eventQueue{}
		ref := &refQueue{}
		jobs := make([]*Job, 1+rng.Intn(8))
		for i := range jobs {
			jobs[i] = &Job{ID: i}
		}
		ops := 1 + rng.Intn(400)
		for op := 0; op < ops; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // push, with deliberately colliding timestamps
				at := sim.Time(rng.Intn(8))
				kind := kinds[rng.Intn(len(kinds))]
				j := jobs[rng.Intn(len(jobs))]
				impl.push(at, kind, j, j.gen)
				ref.push(at, kind, j, j.gen)
			case r < 6: // invalidate: bump a job's generation
				jobs[rng.Intn(len(jobs))].gen++
			default: // pop and compare, including the staleness verdict
				gotAt, got, gotOK := impl.Pop()
				wantAt, want, wantOK := ref.pop()
				if gotOK != wantOK {
					t.Fatalf("trial %d op %d: pop ok mismatch: impl=%v ref=%v", trial, op, gotOK, wantOK)
				}
				if !gotOK {
					continue
				}
				if gotAt != wantAt || got != want {
					t.Fatalf("trial %d op %d: pop mismatch:\n impl=%v %+v\n ref =%v %+v", trial, op, gotAt, got, wantAt, want)
				}
				if (got.gen != got.job.gen) != (want.gen != want.job.gen) {
					t.Fatalf("trial %d op %d: staleness verdict mismatch", trial, op)
				}
			}
		}
		// Drain both completely: the full remaining order must agree.
		for {
			gotAt, got, gotOK := impl.Pop()
			wantAt, want, wantOK := ref.pop()
			if gotOK != wantOK {
				t.Fatalf("trial %d drain: ok mismatch impl=%v ref=%v", trial, gotOK, wantOK)
			}
			if !gotOK {
				break
			}
			if gotAt != wantAt || got != want {
				t.Fatalf("trial %d drain: pop mismatch:\n impl=%v %+v\n ref =%v %+v", trial, gotAt, got, wantAt, want)
			}
		}
		if impl.Len() != 0 {
			t.Fatalf("trial %d: queue reports %d after drain", trial, impl.Len())
		}
	}
}

// TestFleetLedgersPerEvent steps pressured scenarios of every
// mode/manager combination one event at a time and checks, after every
// event, the state admission reads instead of rescanning: each device's
// class ledger equals the bytes its resident jobs hold per class, the
// ledgers summed over devices equal classUsed, and a worst-fit cache
// whose version is current names the device a fresh argmax scan would.
func TestFleetLedgersPerEvent(t *testing.T) {
	for _, tc := range []struct {
		mode AdmissionMode
		mgr  Manager
		seed uint64
	}{
		{AdmitAll, ManagerNone, 42},
		{Predictive, ManagerNone, 42},
		{Predictive, ManagerNone, 7},
		{Predictive, ManagerCapuchin, 42},
		{Predictive, ManagerCapuchin, 7},
	} {
		cfg := testConfig(tc.mode, tc.mgr)
		cfg.Seed = tc.seed
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range f.jobs {
			f.q.push(j.Arrival, evArrive, j, j.gen)
		}
		events, cached := 0, 0
		for f.step() {
			events++
			if err := checkLedgers(f); err != nil {
				t.Fatalf("%v/%v seed %d event %d at %v: %v", tc.mode, tc.mgr, tc.seed, events, f.now, err)
			}
			if f.fit.ok && f.fit.ver == f.poolVer {
				cached++
			}
		}
		for _, d := range f.devs {
			if d.held != [numClasses]int64{} {
				t.Errorf("%v/%v: device %d ledger %v after the last event", tc.mode, tc.mgr, d.id, d.held)
			}
		}
		if cached == 0 {
			t.Errorf("%v/%v: the worst-fit cache was never current after an event", tc.mode, tc.mgr)
		}
	}
}

// checkLedgers verifies the per-device class ledgers and the worst-fit
// cache against the state they summarize.
func checkLedgers(f *Fleet) error {
	var sum [numClasses]int64
	for _, d := range f.devs {
		var want [numClasses]int64
		for _, j := range d.jobs {
			want[j.Class] += j.allocBytes
		}
		if d.held != want {
			return fmt.Errorf("device %d ledger %v, resident jobs hold %v", d.id, d.held, want)
		}
		for c := range sum {
			sum[c] += d.held[c]
		}
	}
	if sum != f.classUsed {
		return fmt.Errorf("device ledgers sum to %v, classUsed %v", sum, f.classUsed)
	}
	if f.fit.ok && f.fit.ver == f.poolVer {
		best, bestFree := 0, f.devs[0].pool.LargestFree()
		for i, d := range f.devs {
			if lf := d.pool.LargestFree(); lf > bestFree {
				best, bestFree = i, lf
			}
		}
		if f.fit.dev != best || f.fit.free != bestFree {
			return fmt.Errorf("current worst-fit cache names device %d (%d free), a scan device %d (%d free)",
				f.fit.dev, f.fit.free, best, bestFree)
		}
	}
	return nil
}
