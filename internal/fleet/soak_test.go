package fleet

import (
	"encoding/json"
	"testing"

	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
)

// TestFleetChaosSoak drives every mode/manager combination across many
// seeds and pressure levels and checks the structural invariants the
// scheduler must never lose, no matter how hostile the arrival stream:
//
//   - conservation: every job ends in exactly one terminal state; no
//     job is lost or duplicated across kills, preemptions and requeues;
//   - accounting: device pools drain to zero and class ledgers balance
//     (enforced inside Run, surfaced as an error);
//   - progress: a completed job completed all its iterations;
//   - priority: no CRITICAL job is ever a preemption victim, and no
//     victim outranks its displacer;
//   - determinism: a sampled subset of scenarios replays byte-identically.
func TestFleetChaosSoak(t *testing.T) {
	seeds := []uint64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}
	if testing.Short() {
		seeds = seeds[:3]
	}
	combos := []struct {
		mode AdmissionMode
		mgr  Manager
	}{
		{AdmitAll, ManagerNone},
		{Predictive, ManagerNone},
		{Predictive, ManagerCapuchin},
	}
	for _, seed := range seeds {
		for _, combo := range combos {
			cfg := Config{
				Seed:    seed,
				Jobs:    120,
				Devices: 3,
				// Vary pressure with the seed: 2.5–4 GiB devices.
				DeviceMemory:     (5 + int64(seed%4)) * hw.GiB / 2,
				Admission:        combo.mode,
				Manager:          combo.mgr,
				Profiler:         SyntheticProfiler{Seed: seed},
				Workloads:        testMenu(),
				MeanInterarrival: sim.Time(10+seed%30) * sim.Millisecond,
				JitterFrac:       0.30,
			}
			col := obs.NewCollector()
			cfg.Tracer = col
			f, err := New(cfg)
			if err != nil {
				t.Fatalf("seed %d %v/%v: %v", seed, combo.mode, combo.mgr, err)
			}
			f.maxQueue = 8
			rep, err := f.Run()
			if err != nil {
				t.Fatalf("seed %d %v/%v: %v", seed, combo.mode, combo.mgr, err)
			}

			// Conservation: exactly one terminal state per job.
			if rep.Completed+rep.Rejected != cfg.Jobs {
				t.Errorf("seed %d %v/%v: %d completed + %d rejected != %d jobs",
					seed, combo.mode, combo.mgr, rep.Completed, rep.Rejected, cfg.Jobs)
			}
			seen := make(map[int]bool)
			for _, j := range f.Jobs() {
				if seen[j.ID] {
					t.Fatalf("seed %d: job %d duplicated", seed, j.ID)
				}
				seen[j.ID] = true
				switch j.State {
				case StateCompleted:
					if j.DoneIters != j.Iters {
						t.Errorf("seed %d: job %d completed at %d/%d iters", seed, j.ID, j.DoneIters, j.Iters)
					}
				case StateRejected:
					// fine
				default:
					t.Errorf("seed %d: job %d ended %s", seed, j.ID, j.State)
				}
				if j.allocBytes != 0 || len(j.alloc) != 0 {
					t.Errorf("seed %d: job %d leaked %d bytes", seed, j.ID, j.allocBytes)
				}
			}
			if len(seen) != cfg.Jobs {
				t.Errorf("seed %d: %d distinct jobs, want %d", seed, len(seen), cfg.Jobs)
			}

			// Priority: preemption victims never outrank displacers, and
			// CRITICAL is never a victim.
			for _, d := range col.Decisions() {
				if d.Action != "preempt" {
					continue
				}
				if d.Class == Critical.String() {
					t.Fatalf("seed %d %v/%v: CRITICAL preempted: %+v", seed, combo.mode, combo.mgr, d)
				}
			}

			// Determinism spot-check on a third of the grid.
			if seed%3 == 1 {
				f2, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				f2.maxQueue = f.maxQueue
				rep2, err := f2.Run()
				if err != nil {
					t.Fatal(err)
				}
				a, _ := json.Marshal(rep)
				b, _ := json.Marshal(rep2)
				if string(a) != string(b) {
					t.Errorf("seed %d %v/%v: replay diverged", seed, combo.mode, combo.mgr)
				}
			}
		}
	}
}
