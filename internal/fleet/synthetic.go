package fleet

import (
	"capuchin/internal/hw"
	"capuchin/internal/sim"
)

// SyntheticProfiler derives profiles from the workload shape alone —
// no executor in the loop — so fleet unit tests and chaos soaks run in
// microseconds per scenario. The numbers are deterministic functions of
// (Seed, Workload): batch scales the peak linearly around a per-model
// base, the warmup peak underestimates the steady peak by a seeded
// per-workload factor (the structural source of prediction error), and
// iteration time grows with the footprint.
type SyntheticProfiler struct {
	// Seed varies the warmup/steady gap per workload; zero is fine.
	Seed uint64
	// BasePeak is the peak at batch 1 (default 96 MiB).
	BasePeak int64
	// UnderestimateFrac is the maximum warmup-vs-steady shortfall
	// (default 0.12: warmup sees 88–100% of the steady peak).
	UnderestimateFrac float64
	// MinCapRatio overrides the profile's managed-cap feasibility floor
	// (default 0.45). Raising it toward 1 makes cap absorption
	// infeasible, forcing the kill/readmit path.
	MinCapRatio float64
}

var _ Profiler = SyntheticProfiler{}

// Profile implements Profiler.
func (sp SyntheticProfiler) Profile(w Workload) (Profile, error) {
	base := sp.BasePeak
	if base == 0 {
		base = 96 * hw.MiB
	}
	under := sp.UnderestimateFrac
	if under == 0 {
		under = 0.12
	}
	minCap := sp.MinCapRatio
	if minCap == 0 {
		minCap = 0.45
	}
	scale := w.Batch
	if w.Seq > 0 {
		scale *= w.Seq
	}
	steady := base + base*scale/4
	key := hashString(w.String())
	gap := float64(under * u01(sp.Seed, key, "warmup-gap"))
	warm := int64(float64(steady) * (1 - gap))
	iter := 2*sim.Millisecond + sim.Time(steady/(64*hw.MiB))*sim.Millisecond
	return Profile{
		WarmupPeak:        warm,
		SteadyPeak:        steady,
		IterTime:          iter,
		MinCapRatio:       minCap,
		CapAnchorRatio:    0.7,
		CapAnchorSlowdown: 1.35,
	}, nil
}
