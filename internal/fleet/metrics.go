package fleet

import (
	"math"
	"sort"
)

// ClassStats is the per-class slice of a report.
type ClassStats struct {
	Jobs      int `json:"jobs"`
	Completed int `json:"completed"`
	Rejected  int `json:"rejected"`
	Preempted int `json:"preempted"` // preemption events suffered
	Kills     int `json:"kills"`
}

// Report is one scenario's fleet-level outcome. It is fully determined
// by the Config (including its seed) and marshals to stable JSON: the
// replayability contract is byte equality of two reports from equal
// configs.
type Report struct {
	Mode    string `json:"mode"`
	Manager string `json:"manager"`
	Seed    uint64 `json:"seed"`
	Jobs    int    `json:"jobs"`
	Devices int    `json:"devices"`

	Completed int `json:"completed"`
	Rejected  int `json:"rejected"`
	// Shed counts queue-overflow rejections (a subset of Rejected).
	Shed int `json:"shed"`

	// Admissions counts job starts (first starts + restarts); Kills
	// genuine OOM kills; KillRatePct kills per hundred admissions.
	Admissions  int     `json:"admissions"`
	Kills       int     `json:"kills"`
	KillRatePct float64 `json:"killRatePct"`
	Preemptions int     `json:"preemptions"`
	Requeues    int     `json:"requeues"`
	CapAbsorbs  int     `json:"capAbsorbs"`

	// MeanAbsPredErrPct is the predictor's mean absolute error against
	// realized peaks, in percent (zero under admit-all, which predicts
	// nothing).
	MeanAbsPredErrPct float64 `json:"meanAbsPredErrPct"`

	// UtilizationPct is the fleet-occupancy integral over capacity ×
	// makespan; GoodputPct the productive (checkpointed-iteration)
	// fraction of the same denominator — utilization minus ramp waste,
	// safety margins and killed work.
	UtilizationPct float64 `json:"utilizationPct"`
	GoodputPct     float64 `json:"goodputPct"`

	// Job completion time quantiles (arrival to completion, completed
	// jobs only) and the makespan, all in virtual milliseconds.
	P50JCTMillis   float64 `json:"p50JctMillis"`
	P99JCTMillis   float64 `json:"p99JctMillis"`
	MakespanMillis float64 `json:"makespanMillis"`

	ByClass map[string]ClassStats `json:"byClass"`
}

// buildReport assembles the report after the event loop drains. Every
// counter field is a derived view over the fleet's obs.Metrics registry
// — the registry is the single source of truth, so the report, its
// goldens and a Prometheus exposition of the same run can never
// disagree. The JCT quantiles and the prediction-error mean stay exact
// float computations over the job set (the registry's histograms store
// bucketed upper bounds, which would coarsen the goldens), documented as
// derived views over the same events the fleet/jct histograms observe.
func (f *Fleet) buildReport() Report {
	r := Report{
		Mode:        f.cfg.Admission.String(),
		Manager:     f.cfg.Manager.String(),
		Seed:        f.cfg.Seed,
		Jobs:        len(f.jobs),
		Devices:     len(f.devs),
		Completed:   int(f.met.Counter(mCompleted)),
		Rejected:    int(f.met.Counter(mRejected)),
		Shed:        int(f.met.Counter(mShed)),
		Admissions:  int(f.met.Counter(mAdmissions)),
		Kills:       int(f.met.Counter(mKills)),
		Preemptions: int(f.met.Counter(mPreemptions)),
		Requeues:    int(f.met.Counter(mRequeues)),
		CapAbsorbs:  int(f.met.Counter(mCapAbsorbs)),
	}
	r.ByClass = make(map[string]ClassStats, int(numClasses))
	for c := Low; c < numClasses; c++ {
		jobs := f.met.Counter(mJobsBy[c])
		if jobs == 0 {
			continue
		}
		r.ByClass[c.String()] = ClassStats{
			Jobs:      int(jobs),
			Completed: int(f.met.Counter(mCompletedBy[c])),
			Rejected:  int(f.met.Counter(mRejectedBy[c])),
			Preempted: int(f.met.Counter(mPreemptionsBy[c])),
			Kills:     int(f.met.Counter(mKillsBy[c])),
		}
	}

	var jcts []float64
	var absErr, errN float64
	for _, j := range f.jobs {
		if j.State == StateCompleted {
			jcts = append(jcts, (j.Done - j.Arrival).Milliseconds())
		}
		if j.Predicted > 0 && j.Actual > 0 {
			absErr += math.Abs(float64(j.Predicted-j.Actual)) / float64(j.Actual)
			errN++
		}
	}
	if errN > 0 {
		r.MeanAbsPredErrPct = round2(100 * absErr / errN)
	}
	if r.Admissions > 0 {
		r.KillRatePct = round2(100 * float64(r.Kills) / float64(r.Admissions))
	}

	makespan := f.now
	r.MakespanMillis = round2(makespan.Milliseconds())
	if denom := float64(f.fleetAlloc) * makespan.Seconds(); denom > 0 {
		r.UtilizationPct = round2(100 * f.usedIntegral / denom)
		r.GoodputPct = round2(100 * f.goodput / denom)
	}

	sort.Float64s(jcts)
	r.P50JCTMillis = round2(quantile(jcts, 0.50))
	r.P99JCTMillis = round2(quantile(jcts, 0.99))
	return r
}

// quantile is the nearest-rank quantile of a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// round2 rounds to two decimals so report JSON stays short and stable.
func round2(v float64) float64 { return math.Round(v*100) / 100 }
