package models

import "fmt"

// This file defines per-iteration shape schedules: the dynamic-workload
// regime of Capuchin §3/§6 (eager mode, variable batch sizes, NLP
// sequence-length buckets) where the computation graph changes between
// iterations and a measured plan can go stale. A Schedule is a pure
// function of (seed, iteration), so runs are deterministic and
// independent of execution order — the property the parallel experiment
// engine and its result cache rely on.

// Schedule kinds.
const (
	// ScheduleConstant repeats the base shape every iteration; a dynamic
	// run under a constant schedule must be byte-identical to the static
	// path (pinned by the differential test in internal/bench).
	ScheduleConstant = "constant"
	// ScheduleBatch drifts the batch size across a small divisor ladder.
	ScheduleBatch = "batch"
	// ScheduleSeq drifts the sequence length across the model's buckets.
	ScheduleSeq = "seq"
	// ScheduleMixed drifts both axes independently.
	ScheduleMixed = "mixed"
)

// ScheduleKinds lists the valid Schedule kinds in CLI-help order.
func ScheduleKinds() []string {
	return []string{ScheduleConstant, ScheduleBatch, ScheduleSeq, ScheduleMixed}
}

// Schedule yields each iteration's shape signature. The zero value is a
// constant schedule at the base shape.
type Schedule struct {
	// Kind is one of the Schedule* constants ("" = constant).
	Kind string
	// Batch is the base batch size; drifting kinds sample from
	// {Batch, 3·Batch/4, Batch/2} (floored at 1).
	Batch int64
	// Seq is the base sequence length (0 = the model has no sequence
	// axis and seq drift is a no-op).
	Seq int64
	// SeqBuckets are the lengths a seq/mixed schedule samples from.
	SeqBuckets []int64
	// Seed drives the deterministic sampler.
	Seed uint64
	// Period is the number of iterations between re-samples (0 = 2).
	Period int
}

// NewSchedule builds a schedule of the given kind for one workload,
// taking the sequence axis from the spec. Iteration 0 always runs the
// base shape so measured baselines and MaxBatch probes anchor there.
func NewSchedule(kind string, spec Spec, batch int64, seed uint64, period int) (Schedule, error) {
	switch kind {
	case ScheduleConstant, ScheduleBatch, ScheduleSeq, ScheduleMixed:
	default:
		return Schedule{}, fmt.Errorf("models: unknown schedule kind %q (have %v)", kind, ScheduleKinds())
	}
	if batch <= 0 {
		return Schedule{}, fmt.Errorf("models: schedule batch %d must be positive", batch)
	}
	if (kind == ScheduleSeq || kind == ScheduleMixed) && spec.BuildSeq == nil {
		return Schedule{}, fmt.Errorf("models: schedule kind %q needs a sequence axis, but %s has none", kind, spec.Name)
	}
	return Schedule{
		Kind:       kind,
		Batch:      batch,
		Seq:        spec.DefaultSeq,
		SeqBuckets: spec.SeqBuckets,
		Seed:       seed,
		Period:     period,
	}, nil
}

// At returns the batch size and sequence length of iteration iter. Seq
// is 0 for workloads without a sequence axis; callers pass both through
// Spec.BuildShaped unchanged.
func (sc Schedule) At(iter int) (batch, seq int64) {
	batch, seq = sc.Batch, sc.Seq
	if sc.Kind == "" || sc.Kind == ScheduleConstant {
		return batch, seq
	}
	period := sc.Period
	if period <= 0 {
		period = 2
	}
	epoch := uint64(iter / period)
	if epoch == 0 {
		// The first period runs the base shape: the measured iteration
		// and the plan it produces describe the anchor signature.
		return batch, seq
	}
	if sc.Kind == ScheduleBatch || sc.Kind == ScheduleMixed {
		choices := batchLadder(sc.Batch)
		batch = choices[int(splitmix(sc.Seed^0x9e3779b97f4a7c15+epoch)%uint64(len(choices)))]
	}
	if (sc.Kind == ScheduleSeq || sc.Kind == ScheduleMixed) && len(sc.SeqBuckets) > 0 {
		seq = sc.SeqBuckets[int(splitmix(sc.Seed+0x632be59bd9b4e019*epoch)%uint64(len(sc.SeqBuckets)))]
	}
	return batch, seq
}

// batchLadder is the divisor ladder a batch/mixed schedule samples
// from: full, three-quarter and half batches, deduplicated and floored
// at 1 (a batch-1 base is a constant ladder).
func batchLadder(base int64) []int64 {
	ladder := []int64{base}
	for _, b := range []int64{base * 3 / 4, base / 2} {
		if b < 1 {
			b = 1
		}
		if b != ladder[len(ladder)-1] {
			ladder = append(ladder, b)
		}
	}
	return ladder
}

// splitmix is the splitmix64 finalizer: a high-quality 64-bit mixer
// that makes each epoch's draw independent of its neighbours.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
