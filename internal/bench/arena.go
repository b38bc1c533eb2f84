package bench

import (
	"errors"
	"fmt"
	"sync"

	"capuchin/internal/exec"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
)

// arenaCaps returns the memory-cap ladder the tournament runs over.
func arenaCaps(quick bool) []int64 {
	if quick {
		return []int64{2 * hw.GiB, 4 * hw.GiB}
	}
	return []int64{4 * hw.GiB, 8 * hw.GiB, 16 * hw.GiB}
}

// arenaModels returns the tournament workloads: one CNN and one
// transformer, so layer-type heuristics (vDNN, SuperNeurons) meet a graph
// without convolutions.
func arenaModels(quick bool) []string {
	if quick {
		return []string{"resnet50"}
	}
	return []string{"resnet50", "bert"}
}

// arenaProbe picks the tournament's common probe batch for one (model,
// cap) cell: the baseline's maximum plus a quarter — deliberately beyond
// what fits unmanaged, so the probe run separates policies by how well
// they trade traffic for capacity rather than re-measuring the fits-anyway
// regime.
func arenaProbe(tfMax int64) int64 {
	if tfMax == 0 {
		return 1
	}
	probe := tfMax + tfMax/4
	if probe <= tfMax {
		probe = tfMax + 1
	}
	return probe
}

// Arena runs the policy tournament: every arena-registered policy (the
// exec registry's rivals — baselines, Capuchin, h-DTR, chunk placement)
// across the model set and memory-cap ladder. For each cell it reports the
// policy's maximum batch, then its behaviour at the shared probe batch:
// iteration time, swap traffic (active plus passive), recompute traffic,
// and whether the run survived. Rows are assembled in submission order, so
// the table is byte-identical at any job count.
func Arena(o Options) *Table {
	o = o.fill()
	policies := exec.ArenaPolicyNames()
	t := &Table{
		Title:  "Policy arena: rival memory managers, max batch and probe-batch behaviour",
		Header: []string{"model", "memory", "policy", "max batch", "probe batch", "iter time", "swapped", "recomputed", "outcome"},
	}
	models := arenaModels(o.Quick)
	caps := arenaCaps(o.Quick)

	// Phase 1: every (policy, model, cap) max-batch search, one searchSet
	// per cap (the device differs), all resolving concurrently.
	sets := make([]*searchSet, len(caps))
	for ci, capBytes := range caps {
		sets[ci] = newSearchSet(o.Runner, o.Device.WithMemory(capBytes))
		for _, m := range models {
			for _, p := range policies {
				sets[ci].add(m, System(p))
			}
		}
	}
	var wg sync.WaitGroup
	for _, s := range sets {
		wg.Add(1)
		go func(s *searchSet) {
			defer wg.Done()
			s.resolve()
		}(s)
	}
	wg.Wait()

	// Phase 2: probe runs for every cell at that cell's shared batch.
	var cfgs []RunConfig
	for _, m := range models {
		for ci, capBytes := range caps {
			probe := arenaProbe(sets[ci].get(m, SystemTF))
			for _, p := range policies {
				cfgs = append(cfgs, RunConfig{
					Model: m, Batch: probe, System: System(p),
					Device: o.Device.WithMemory(capBytes), Iterations: o.Iterations,
				})
			}
		}
	}
	cells := o.Runner.RunAll(cfgs)

	k := 0
	for _, m := range models {
		for ci, capBytes := range caps {
			probe := arenaProbe(sets[ci].get(m, SystemTF))
			for _, p := range policies {
				r := cells[k]
				k++
				maxB := sets[ci].get(m, System(p))
				iterCell, swapCell, recompCell, outcome := "-", "-", "-", "OOM"
				if r.OK {
					st := r.Steady
					iterCell = st.Duration.String()
					swapCell = obs.FmtBytes(st.SwapOutBytes + st.PassiveBytes)
					recompCell = obs.FmtBytes(st.RecomputeBytes)
					outcome = "ok"
				} else if r.Err != nil && !errors.Is(r.Err, exec.ErrIterationOOM) {
					outcome = "failed"
				}
				t.AddRow(m, obs.FmtBytes(capBytes), p,
					maxBatchCell(maxB), fmt.Sprintf("%d", probe),
					iterCell, swapCell, recompCell, outcome)
			}
		}
	}
	t.AddNote("probe batch = TF-ori max + 25%%: beyond unmanaged capacity, where policies separate")
	t.AddNote("conformance: every policy's fingerprints are oracle-checked in internal/policy/conformance")
	return t
}
