package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"capuchin/internal/memory"
	"capuchin/internal/obs"
)

// refPlace is the sort-then-probe placement that argmax place replaced:
// order devices by largest free chunk (lowest index on ties) and try a
// full Alloc on each in turn, treating an OOMError as "does not fit".
// The differential test replays identical tapes through both.
func refPlace(f *Fleet, j *Job, need int64) int {
	order := make([]int, len(f.devs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := f.devs[order[a]].pool.LargestFree(), f.devs[order[b]].pool.LargestFree()
		if la != lb {
			return la > lb
		}
		return order[a] < order[b]
	})
	for _, di := range order {
		a, err := f.devs[di].pool.Alloc(need)
		if err != nil {
			var oe *memory.OOMError
			if !errors.As(err, &oe) {
				panic(fmt.Sprintf("unexpected alloc error: %v", err))
			}
			continue
		}
		j.alloc = append(j.alloc, a)
		j.allocBytes += a.Size
		f.classUsed[j.Class] += a.Size
		f.devs[di].held[j.Class] += a.Size
		return di
	}
	return -1
}

// placeFleet builds a bare fleet over BFC devices of the given
// capacities — all place and allocOn touch.
func placeFleet(caps []int64) *Fleet {
	f := &Fleet{met: obs.NewMetrics()}
	for i, c := range caps {
		f.devs = append(f.devs, &device{id: i, pool: memory.NewBFC(c), jobs: make(map[int]*Job)})
	}
	return f
}

// poolState is everything observable about a device's allocator.
type poolState struct {
	Stats memory.Stats
	Bins  []memory.BinOccupancy
}

func fleetPoolStates(f *Fleet) []poolState {
	out := make([]poolState, len(f.devs))
	for i, d := range f.devs {
		out[i] = poolState{Stats: d.pool.Stats(), Bins: d.pool.Bins()}
	}
	return out
}

// TestPlacePropertyDifferential replays seeded tapes of placements,
// frees and device fills over 1–32 BFC pools through argmax place and
// the sort-then-probe reference. Capacities repeat, so equal largest
// free chunks tie; fills leave devices completely full; and many
// requests sit just below, at, or just above the largest free chunk
// after 256-byte rounding. Both must choose the same device, hand out
// the same chunks, and leave identical pool states and class ledgers.
func TestPlacePropertyDifferential(t *testing.T) {
	const kiB = 1 << 10
	capMenu := []int64{64 * kiB, 64 * kiB, 128 * kiB, 256 * kiB, 256*kiB + 768}
	// Coverage of the cases the equivalence argument hinges on.
	var ties, misses, hits int
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		caps := make([]int64, 1+rng.Intn(32))
		for i := range caps {
			caps[i] = capMenu[rng.Intn(len(capMenu))]
		}
		impl, ref := placeFleet(caps), placeFleet(caps)
		// live pairs each placed job with its twin in the reference.
		type twin struct{ impl, ref *Job }
		var live []twin
		nextID := 0
		newTwin := func() twin {
			c := Class(rng.Intn(int(numClasses)))
			nextID++
			return twin{&Job{ID: nextID, Class: c, Device: -1}, &Job{ID: nextID, Class: c, Device: -1}}
		}
		ops := 1 + rng.Intn(300)
		for op := 0; op < ops; op++ {
			var what string
			switch r := rng.Intn(10); {
			case r < 6: // place
				var need int64
				if rng.Intn(2) == 0 {
					// Probe the boundary: a device's largest chunk, nudged
					// across the 256-byte rounding either way.
					lf := impl.devs[rng.Intn(len(caps))].pool.LargestFree()
					need = lf + int64(rng.Intn(3*256+1)) - 2*256
				} else {
					need = int64(rng.Intn(96 * kiB))
				}
				if tiedAtMax(impl) {
					ties++
				}
				tw := newTwin()
				got, want := impl.place(tw.impl, need), refPlace(ref, tw.ref, need)
				what = fmt.Sprintf("place(%d)", need)
				if got != want {
					t.Fatalf("trial %d op %d: %s chose device %d, reference %d", trial, op, what, got, want)
				}
				if got < 0 {
					misses++
				} else {
					hits++
					ga, wa := tw.impl.alloc[0], tw.ref.alloc[0]
					if ga.Offset != wa.Offset || ga.Size != wa.Size {
						t.Fatalf("trial %d op %d: %s chunk [%d,+%d), reference [%d,+%d)",
							trial, op, what, ga.Offset, ga.Size, wa.Offset, wa.Size)
					}
					tw.impl.Device, tw.ref.Device = got, want
					live = append(live, tw)
				}
			case r < 9: // free a random resident
				if len(live) == 0 {
					continue
				}
				k := rng.Intn(len(live))
				impl.releaseAllocs(live[k].impl)
				ref.releaseAllocs(live[k].ref)
				live = append(live[:k], live[k+1:]...)
				what = "free"
			default: // fill one device to the last byte
				di := rng.Intn(len(caps))
				tw := newTwin()
				tw.impl.Device, tw.ref.Device = di, di
				for impl.devs[di].pool.LargestFree() > 0 {
					lf := impl.devs[di].pool.LargestFree()
					if !impl.allocOn(di, tw.impl, lf) || !ref.allocOn(di, tw.ref, lf) {
						t.Fatalf("trial %d op %d: filling device %d with %d failed", trial, op, di, lf)
					}
				}
				live = append(live, tw)
				what = fmt.Sprintf("fill(%d)", di)
			}
			if g, w := fleetPoolStates(impl), fleetPoolStates(ref); !reflect.DeepEqual(g, w) {
				t.Fatalf("trial %d op %d: pool states diverge after %s:\n impl=%+v\n ref =%+v", trial, op, what, g, w)
			}
			if impl.classUsed != ref.classUsed {
				t.Fatalf("trial %d op %d: class ledgers diverge after %s: %v vs %v", trial, op, what, impl.classUsed, ref.classUsed)
			}
		}
		for _, d := range impl.devs {
			if err := d.pool.CheckInvariants(); err != nil {
				t.Fatalf("trial %d device %d: %v", trial, d.id, err)
			}
		}
	}
	if ties == 0 || misses == 0 || hits == 0 {
		t.Fatalf("tapes missed a case: %d tied placements, %d misses, %d hits", ties, misses, hits)
	}
}

// tiedAtMax reports whether two or more devices share the largest free
// chunk, so placement must break the tie by index.
func tiedAtMax(f *Fleet) bool {
	best, n := int64(-1), 0
	for _, d := range f.devs {
		switch lf := d.pool.LargestFree(); {
		case lf > best:
			best, n = lf, 1
		case lf == best:
			n++
		}
	}
	return n > 1
}

// refPreemptFor is the preemption search the per-device class ledgers
// replaced: it sums each device's lower-class bytes by walking the
// device's resident jobs, then evicts through the shared preemptOn.
func refPreemptFor(f *Fleet, j *Job, need int64) int {
	best, bestBytes := -1, int64(0)
	for di, d := range f.devs {
		var byClass [numClasses]int64
		for _, v := range d.jobs {
			if v.Class < j.Class {
				byClass[v.Class] += v.allocBytes
			}
		}
		var lower int64
		for c := Low; c < j.Class; c++ {
			allow := f.classUsed[c] - int64(f.bands[c].minFrac*float64(f.fleetAlloc))
			if allow < 0 {
				allow = 0
			}
			if byClass[c] < allow {
				lower += byClass[c]
			} else {
				lower += allow
			}
		}
		if d.pool.FreeBytes()+lower >= need && (best < 0 || lower < bestBytes) {
			best, bestBytes = di, lower
		}
	}
	if best < 0 {
		return -1
	}
	if !f.preemptOn(best, j, need-f.devs[best].pool.FreeBytes()) {
		return -1
	}
	return best
}

// admitter is one side of the admission differential: a placement and a
// preemption search.
type admitter struct {
	place   func(f *Fleet, j *Job, need int64) int
	preempt func(f *Fleet, j *Job, need int64) int
}

// admit is tryAdmit's placement tail over a's searches: worst-fit
// placement, else preemption for a class above LOW, then the start of
// the attempt. It reports the device chosen, or -1.
func (a admitter) admit(f *Fleet, j *Job) int {
	need := f.reserveBytes(j)
	dev := a.place(f, j, need)
	if dev < 0 && j.Class > Low {
		if dev = a.preempt(f, j, need); dev >= 0 && !f.allocOn(dev, j, need) {
			dev = -1
		}
	}
	if dev >= 0 {
		f.queueRemove(j)
		f.startAttempt(j, dev, need)
	}
	return dev
}

// admissionFleet is a bare predictive fleet over BFC devices of the
// given capacities, with the class bands in force.
func admissionFleet(caps []int64, mgr Manager) *Fleet {
	f := placeFleet(caps)
	f.cfg.Admission, f.cfg.Manager = Predictive, mgr
	f.bands = classBands
	for _, c := range caps {
		f.fleetAlloc += c
		f.maxDev = max(f.maxDev, c)
	}
	return f
}

// jobView is what the differential compares of one job.
type jobView struct {
	State                 JobState
	Device                int
	AllocBytes            int64
	Cap                   int64
	Kills, Preempted      int
	Admissions, DoneIters int
}

func fleetJobViews(jobs []*Job) []jobView {
	out := make([]jobView, len(jobs))
	for i, j := range jobs {
		out[i] = jobView{j.State, j.Device, j.allocBytes, j.Cap, j.Kills, j.Preempted, j.Admissions, j.DoneIters}
	}
	return out
}

func queueIDs(f *Fleet) []int {
	ids := make([]int, len(f.queued))
	for i, j := range f.queued {
		ids[i] = j.ID
	}
	return ids
}

// TestAdmissionPropertyDifferential replays seeded tapes of arrivals,
// admissions, ramp peaks, completions, OOM kills and requeues over 1–32
// BFC pools through the fleet's admission (cached worst-fit argmax,
// per-device class ledgers) and through the references (refPlace and
// refPreemptFor, which rescan every device and walk every resident
// job). Peaks over the reservation preempt, absorb or kill; admissions
// of HIGH and CRITICAL jobs into full pools preempt. After every step
// both sides must have chosen the same device, evicted the same victims
// into the same queue order, and left every pool, every job and every
// ledger in the same state.
func TestAdmissionPropertyDifferential(t *testing.T) {
	const miB = 1 << 20
	impl := admitter{
		place:   func(f *Fleet, j *Job, need int64) int { return f.place(j, need) },
		preempt: func(f *Fleet, j *Job, need int64) int { return f.preemptFor(j, need) },
	}
	ref := admitter{place: refPlace, preempt: refPreemptFor}
	capMenu := []int64{256 * miB, 256 * miB, 384 * miB, 512 * miB}
	var placed, preempted, victims, refused, peaks, kills int
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		caps := make([]int64, 1+rng.Intn(32))
		for i := range caps {
			caps[i] = capMenu[rng.Intn(len(capMenu))]
		}
		mgr := Manager(rng.Intn(2))
		fi, fr := admissionFleet(caps, mgr), admissionFleet(caps, mgr)
		var ji, jr []*Job // twins, by ID
		// pick draws the ID of a twin whose implementation side satisfies
		// ok, or -1.
		pick := func(ok func(*Job) bool) int {
			var ids []int
			for id, j := range ji {
				if ok(j) {
					ids = append(ids, id)
				}
			}
			if len(ids) == 0 {
				return -1
			}
			return ids[rng.Intn(len(ids))]
		}
		running := func(j *Job) bool { return j.State == StateRunning }
		for op, ops := 0, 1+rng.Intn(400); op < ops; op++ {
			var what string
			switch r := rng.Intn(20); {
			case r < 5: // arrival
				actual := int64(16+rng.Intn(240)) * miB
				predicted := int64(float64(actual) * (0.7 + 0.6*rng.Float64()))
				class := Class(rng.Intn(int(numClasses)))
				for _, side := range []struct {
					f    *Fleet
					jobs *[]*Job
				}{{fi, &ji}, {fr, &jr}} {
					j := &Job{
						ID: len(*side.jobs), Class: class, Iters: 50, Device: -1,
						Actual: actual, Predicted: predicted,
						Profile: Profile{IterTime: 1000, MinCapRatio: 0.45, CapAnchorRatio: 0.7, CapAnchorSlowdown: 1.35},
					}
					*side.jobs = append(*side.jobs, j)
					side.f.queueInsert(j)
				}
				what = "arrive"
			case r < 12: // admission attempt of a queued job
				if len(fi.queued) == 0 {
					continue
				}
				k := rng.Intn(len(fi.queued))
				id := fi.queued[k].ID
				if fr.queued[k].ID != id {
					t.Fatalf("trial %d op %d: queues diverge at %d", trial, op, k)
				}
				before := fi.met.Counter(mPreemptions)
				got, want := impl.admit(fi, ji[id]), ref.admit(fr, jr[id])
				what = fmt.Sprintf("admit(job %d, class %s)", id, ji[id].Class)
				if got != want {
					t.Fatalf("trial %d op %d: %s chose device %d, reference %d", trial, op, what, got, want)
				}
				if got < 0 {
					refused++
				} else {
					placed++
				}
				if n := fi.met.Counter(mPreemptions) - before; n > 0 {
					preempted++
					victims += int(n)
				}
			case r < 15: // ramp peak
				id := pick(func(j *Job) bool { return running(j) && !j.peaked })
				if id < 0 {
					continue
				}
				fi.onPeak(ji[id])
				fr.onPeak(jr[id])
				what = fmt.Sprintf("peak(job %d)", id)
				peaks++
			case r < 18: // completion
				id := pick(running)
				if id < 0 {
					continue
				}
				fi.evict(ji[id])
				fr.evict(jr[id])
				ji[id].State, jr[id].State = StateCompleted, StateCompleted
				what = fmt.Sprintf("complete(job %d)", id)
			case r < 19: // OOM kill
				id := pick(running)
				if id < 0 {
					continue
				}
				fi.oomKill(ji[id], "")
				fr.oomKill(jr[id], "")
				what = fmt.Sprintf("kill(job %d)", id)
				kills++
			default: // a killed job's backoff expires
				id := pick(func(j *Job) bool { return j.State == StateBackoff })
				if id < 0 {
					continue
				}
				fi.queueInsert(ji[id])
				fr.queueInsert(jr[id])
				what = fmt.Sprintf("requeue(job %d)", id)
			}
			if g, w := queueIDs(fi), queueIDs(fr); !reflect.DeepEqual(g, w) {
				t.Fatalf("trial %d op %d: queues diverge after %s: %v vs %v", trial, op, what, g, w)
			}
			if g, w := fleetJobViews(ji), fleetJobViews(jr); !reflect.DeepEqual(g, w) {
				t.Fatalf("trial %d op %d: jobs diverge after %s:\n impl=%+v\n ref =%+v", trial, op, what, g, w)
			}
			if g, w := fleetPoolStates(fi), fleetPoolStates(fr); !reflect.DeepEqual(g, w) {
				t.Fatalf("trial %d op %d: pool states diverge after %s:\n impl=%+v\n ref =%+v", trial, op, what, g, w)
			}
			if err := checkLedgers(fi); err != nil {
				t.Fatalf("trial %d op %d: after %s: %v", trial, op, what, err)
			}
		}
	}
	t.Logf("%d admissions, %d refusals, %d preempting admissions (%d victims), %d peaks, %d kills",
		placed, refused, preempted, victims, peaks, kills)
	if placed == 0 || refused == 0 || preempted == 0 || victims <= preempted || peaks == 0 || kills == 0 {
		t.Fatal("tapes missed a case")
	}
}
