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
