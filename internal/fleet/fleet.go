// Package fleet simulates a multi-tenant GPU fleet scheduler: a seeded
// stochastic stream of heterogeneous training jobs — model × batch/seq
// ladder × tenant priority class — arriving at a cluster of simulated
// devices, each device's memory tracked by a real allocator
// (memory.NewBFC), so admission mistakes surface as genuine OOM failures
// rather than bookkeeping guesses.
//
// The admission controller follows the dynamic-analysis memory-prediction
// approach (arXiv:2504.03887): every job first runs a few instrumented
// warmup iterations in a sandbox, its device high-water mark after warmup
// (exec.IterStats.PeakBytes / memory.Pool.Peak) predicts the steady-state
// peak, and the controller admits, bin-packs, queues or sheds against
// per-class min/max memory bands. Robustness is the point: predictions
// err (per-job input variance jitters the realized peak), mispredictions
// become OOM kills, and the scheduler must recover — kill→requeue with
// capped exponential backoff (sim.Backoff), preemption of strictly
// lower-class jobs under pressure, and optionally readmission under a
// Capuchin-managed tighter memory cap (the DTR-style fallback ladder:
// absorb overshoot by swapping/recomputing under the cap before killing).
// Progress is checkpointed per iteration, so a killed or preempted job
// resumes where it stopped — crash-safe recovery, never lost or
// duplicated work.
//
// The whole simulation is deterministic: all randomness is drawn from
// counter-keyed hashes of (seed, job, purpose), the event loop is
// single-threaded with total (time, sequence) ordering, and a report is
// byte-for-byte replayable from its seed.
package fleet

import (
	"fmt"
	"sort"

	"capuchin/internal/hw"
	"capuchin/internal/memory"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
)

// Class is a tenant priority class. Higher values outrank lower ones:
// under memory pressure the controller preempts strictly lower classes
// only, so a CRITICAL job can displace LOW and HIGH jobs but never
// another CRITICAL one, and a LOW job can displace nothing.
type Class int

// The tenant classes, lowest priority first.
const (
	Low Class = iota
	High
	Critical
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Critical:
		return "CRITICAL"
	case High:
		return "HIGH"
	default:
		return "LOW"
	}
}

// Band is a tenant class's fleet-wide memory share: the controller keeps
// the class's total reserved bytes at or below MaxFrac of fleet memory,
// and refuses admissions of lower classes that would eat into the
// unfilled MinFrac reservations of higher ones.
type Band struct {
	MinFrac float64
	MaxFrac float64
}

// DefaultBands is the priority-tiered partitioning default: CRITICAL is
// guaranteed 30% and may take everything, HIGH is guaranteed 15% and
// capped at 85%, LOW gets no guarantee and at most 75%. Max caps keep a
// class from monopolizing the fleet while contention lasts; min
// guarantees are enforced dynamically (preemption and its MinFrac
// shield), not by idling memory.
func DefaultBands() map[Class]Band {
	return map[Class]Band{
		Critical: {MinFrac: 0.30, MaxFrac: 1.00},
		High:     {MinFrac: 0.15, MaxFrac: 0.85},
		Low:      {MinFrac: 0.00, MaxFrac: 0.75},
	}
}

// AdmissionMode selects the admission controller.
type AdmissionMode int

const (
	// AdmitAll is the no-prediction baseline: jobs start immediately on
	// the emptiest device, allocate as they ramp, and OOM when the
	// device runs out. No warmup, no bands, no preemption.
	AdmitAll AdmissionMode = iota
	// Predictive runs the warmup→predict→admit pipeline with class
	// bands and priority preemption.
	Predictive
)

// String implements fmt.Stringer.
func (m AdmissionMode) String() string {
	if m == Predictive {
		return "predictive"
	}
	return "admit-all"
}

// Manager selects the per-job memory manager jobs run under.
type Manager int

const (
	// ManagerNone runs jobs unmanaged: a peak above the reservation must
	// be allocated for real or the job dies.
	ManagerNone Manager = iota
	// ManagerCapuchin runs jobs under a Capuchin-managed cap: overshoot
	// within the feasible cap ratio is absorbed by swap/recompute at a
	// profiled slowdown instead of an OOM kill, and a killed job is
	// readmitted under a tighter cap rather than retried as-is.
	ManagerCapuchin
)

// String implements fmt.Stringer.
func (m Manager) String() string {
	if m == ManagerCapuchin {
		return "capuchin"
	}
	return "none"
}

// Workload identifies one job shape: a model at a batch size and
// (optionally) a sequence length.
type Workload struct {
	Model string
	Batch int64
	Seq   int64
}

// String implements fmt.Stringer.
func (w Workload) String() string {
	if w.Seq > 0 {
		return fmt.Sprintf("%s/b%d/s%d", w.Model, w.Batch, w.Seq)
	}
	return fmt.Sprintf("%s/b%d", w.Model, w.Batch)
}

// Profile is the measured memory/time profile of one workload, the
// ground truth the fleet samples per-job realizations from and the
// warmup measurement the predictor sees.
type Profile struct {
	// WarmupPeak is the device allocator's high-water mark after the
	// instrumented warmup iterations — the predictor's only input.
	WarmupPeak int64
	// SteadyPeak is the true steady-state peak of a full run.
	SteadyPeak int64
	// IterTime is the uncapped steady-state iteration time.
	IterTime sim.Time
	// MinCapRatio is the smallest cap/peak ratio the per-job manager can
	// run the workload under; below it even Capuchin OOMs (the working
	// set no longer fits between accesses).
	MinCapRatio float64
	// CapAnchorRatio and CapAnchorSlowdown anchor the managed-slowdown
	// model: running under cap = CapAnchorRatio × peak costs
	// CapAnchorSlowdown × IterTime. Slowdown interpolates linearly from
	// 1 at ratio 1 through the anchor.
	CapAnchorRatio    float64
	CapAnchorSlowdown float64
}

// Slowdown reports the managed iteration-time multiplier at the given
// cap/peak ratio, or ok=false when the ratio is below MinCapRatio and the
// workload cannot run under that cap at all.
func (p Profile) Slowdown(ratio float64) (float64, bool) {
	if ratio >= 1 {
		return 1, true
	}
	if ratio < p.MinCapRatio {
		return 0, false
	}
	anchor := p.CapAnchorRatio
	slow := p.CapAnchorSlowdown
	if anchor <= 0 || anchor >= 1 || slow <= 1 {
		// Degenerate anchor: treat managed execution as free.
		return 1, true
	}
	s := 1 + (slow-1)*(1-ratio)/(1-anchor)
	if s < 1 {
		s = 1
	}
	return s, true
}

// Profiler measures workload profiles. Implementations must be
// deterministic: the fleet memoizes per workload, and the report's
// replayability rests on equal workloads yielding equal profiles.
type Profiler interface {
	Profile(w Workload) (Profile, error)
}

// JobState is a job's position in the scheduler's state machine.
type JobState int

// The job states.
const (
	StatePending   JobState = iota // arrived, warming up in the sandbox
	StateQueued                    // waiting for admission
	StateRunning                   // resident on a device
	StateBackoff                   // killed, waiting out its backoff
	StateCompleted                 // all iterations done
	StateRejected                  // shed, unfittable, or out of retries
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateBackoff:
		return "backoff"
	case StateCompleted:
		return "completed"
	case StateRejected:
		return "rejected"
	}
	return "unknown"
}

// Job is one training job in the fleet.
type Job struct {
	ID      int
	Class   Class
	Load    Workload
	Arrival sim.Time
	// Iters is the job's total training length in iterations.
	Iters int

	// Profile is the workload's measured profile; Predicted the
	// controller's peak prediction including the safety margin (zero
	// under AdmitAll); Actual this job instance's realized peak.
	Profile   Profile
	Predicted int64
	Actual    int64

	// State machine.
	State JobState
	// Device is the current device index, -1 when not resident.
	Device int
	// Cap is the Capuchin-managed device cap for the current attempt;
	// zero means unmanaged.
	Cap int64
	// Done is the completion time (valid when State == StateCompleted).
	Done sim.Time
	// DoneIters is checkpointed progress: iterations completed across
	// all attempts. Killed and preempted jobs resume from here.
	DoneIters int

	// Robustness counters.
	Admissions int
	Kills      int
	Preempted  int
	Capped     bool // ran capped at least once

	// Per-attempt runtime state.
	gen        int // attempt generation; stale events are dropped
	queuedAt   sim.Time
	admitAt    sim.Time
	completeAt sim.Time
	effIter    sim.Time
	startIters int // DoneIters at admission
	peaked     bool
	alloc      []*memory.Allocation
	allocBytes int64 // sum of rounded chunk sizes currently held
	// workByteSec accumulates the job's checkpointed byte·seconds across
	// attempts; it feeds fleet goodput only if the job completes.
	workByteSec float64
}

// Config describes one fleet scenario. The zero value is not runnable:
// Jobs, Devices and Profiler are required.
type Config struct {
	// Seed drives every stochastic draw; equal configs replay equal runs.
	Seed uint64
	// Jobs is the number of jobs in the arrival stream.
	Jobs int
	// Devices is the device count; DeviceMemory the per-device capacity
	// (default 16 GiB). DeviceMemories, when non-empty, assigns
	// capacities round-robin for a heterogeneous fleet.
	Devices        int
	DeviceMemory   int64
	DeviceMemories []int64
	// Admission and Manager select the controller and the per-job
	// memory manager.
	Admission AdmissionMode
	Manager   Manager
	// Profiler measures workload profiles (required).
	Profiler Profiler
	// Workloads is the menu the arrival stream samples from (required).
	Workloads []Workload
	// ClassWeights are the sampling weights for LOW, HIGH, CRITICAL in
	// that order; zero means {5, 3, 2}.
	ClassWeights [3]float64
	// MeanInterarrival is the mean of the exponential inter-arrival
	// distribution (default 50 ms).
	MeanInterarrival sim.Time
	// MinIters and MaxIters bound per-job training length (default
	// 20..120).
	MinIters, MaxIters int
	// JitterFrac is the ± relative spread of a job's realized peak
	// around the workload's steady peak (default 0.15) — the predictor's
	// irreducible error source.
	JitterFrac float64
	// SafetyMargin inflates predictions (default 0.10): predicted =
	// warmup peak × (1 + margin).
	SafetyMargin float64
	// WarmupIters is the instrumented sandbox warmup length, also the
	// on-device ramp to full footprint (default 2).
	WarmupIters int
	// MaxKills bounds OOM kills per job before it is rejected
	// (default 4).
	MaxKills int
	// BackoffBase is the base requeue delay after a kill, doubling per
	// kill via sim.Backoff (default 10 ms).
	BackoffBase sim.Time
	// MaxQueue bounds the admission queue; beyond it the controller
	// sheds lowest-class, youngest jobs (default 4 × Devices).
	MaxQueue int
	// Bands are the per-class memory bands (default DefaultBands).
	// AdmitAll ignores them.
	Bands map[Class]Band
	// CapRetryRatio is the cap/observed-peak ratio of a Capuchin
	// readmission after a kill (default 0.8), tightened by 10% per
	// further kill and floored at the workload's MinCapRatio.
	CapRetryRatio float64
	// Tracer, when non-nil, receives an audit Decision for every
	// admission-controller choice plus the fleet timeline: a span per
	// job lifecycle phase, per-device memory counter tracks, a
	// queue-depth gauge, and instants for admissions, preemptions and
	// OOM kills. Tracing is outcome-neutral: a traced run's Report is
	// byte-identical to an untraced one.
	Tracer obs.Tracer
	// Metrics, when non-nil, receives a merge of the run's metric
	// registry (fleet/* counters, per-class queue-wait and JCT
	// histograms) after Run drains. The fleet always accumulates into
	// its own fresh registry — exposed via Fleet.Metrics — so a shared
	// destination aggregates scenarios without polluting any one run's
	// Report.
	Metrics *obs.Metrics
}

// fill applies defaults and validates.
func (c Config) fill() (Config, error) {
	if c.Jobs <= 0 {
		return c, fmt.Errorf("fleet: Jobs must be positive, got %d", c.Jobs)
	}
	if c.Devices <= 0 {
		return c, fmt.Errorf("fleet: Devices must be positive, got %d", c.Devices)
	}
	if c.Profiler == nil {
		return c, fmt.Errorf("fleet: Profiler is required")
	}
	if len(c.Workloads) == 0 {
		return c, fmt.Errorf("fleet: Workloads menu is empty")
	}
	if c.DeviceMemory == 0 {
		c.DeviceMemory = 16 * hw.GiB
	}
	if c.ClassWeights == ([3]float64{}) {
		c.ClassWeights = [3]float64{5, 3, 2}
	}
	if c.MeanInterarrival == 0 {
		c.MeanInterarrival = 50 * sim.Millisecond
	}
	if c.MinIters == 0 {
		c.MinIters = 20
	}
	if c.MaxIters == 0 {
		c.MaxIters = 120
	}
	if c.MaxIters < c.MinIters {
		return c, fmt.Errorf("fleet: MaxIters %d below MinIters %d", c.MaxIters, c.MinIters)
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = 0.15
	}
	if c.JitterFrac < 0 || c.JitterFrac >= 1 {
		return c, fmt.Errorf("fleet: JitterFrac %v outside [0,1)", c.JitterFrac)
	}
	if c.SafetyMargin == 0 {
		c.SafetyMargin = 0.10
	}
	if c.WarmupIters == 0 {
		c.WarmupIters = 2
	}
	if c.MaxKills == 0 {
		c.MaxKills = 4
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 10 * sim.Millisecond
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.Devices
	}
	if c.Bands == nil {
		c.Bands = DefaultBands()
	}
	if c.CapRetryRatio == 0 {
		c.CapRetryRatio = 0.8
	}
	return c, nil
}

// device is one simulated accelerator: its memory is a real BFC
// allocator, so fragmentation, rounding and allocation failure behave
// exactly as they do under a per-job session. The pool is concretely a
// BFC because placement relies on its fit rule (see place).
type device struct {
	id   int
	pool *memory.BFC
	jobs map[int]*Job
}

// Fleet is one scenario's scheduler state. Build with New, drive with
// Run; a Fleet is single-use.
type Fleet struct {
	cfg        Config
	jobs       []*Job
	devs       []*device
	fleetAlloc int64 // total fleet memory
	maxDev     int64 // largest device capacity

	q      *eventQueue
	queued []*Job // admission queue, kept in priority order

	// classUsed tracks reserved bytes per class, fleet-wide.
	classUsed [numClasses]int64

	now          sim.Time
	lastT        sim.Time
	usedIntegral float64 // ∫ Σ pool.Used dt
	goodput      float64 // Σ byte·seconds of work owned by completed jobs

	// met is the run's metric registry: every Report counter is derived
	// from it, and per-class queue-wait/JCT histograms accumulate here.
	met *obs.Metrics
}

// New builds a fleet scenario: it samples the arrival stream, profiles
// every distinct workload on the menu, and initializes the devices.
func New(cfg Config) (*Fleet, error) {
	cfg, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	f := &Fleet{cfg: cfg, q: newEventQueue(), met: obs.NewMetrics()}

	// Devices.
	for i := 0; i < cfg.Devices; i++ {
		capBytes := cfg.DeviceMemory
		if len(cfg.DeviceMemories) > 0 {
			capBytes = cfg.DeviceMemories[i%len(cfg.DeviceMemories)]
		}
		f.devs = append(f.devs, &device{
			id:   i,
			pool: memory.NewBFC(capBytes),
			jobs: make(map[int]*Job),
		})
		f.fleetAlloc += capBytes
		f.maxDev = max(f.maxDev, f.devs[i].pool.Capacity())
	}

	// Profile the menu once per distinct workload.
	profiles := make(map[Workload]Profile, len(cfg.Workloads))
	for _, w := range cfg.Workloads {
		if _, ok := profiles[w]; ok {
			continue
		}
		p, err := cfg.Profiler.Profile(w)
		if err != nil {
			return nil, fmt.Errorf("fleet: profiling %v: %w", w, err)
		}
		if p.SteadyPeak <= 0 || p.IterTime <= 0 {
			return nil, fmt.Errorf("fleet: profiler returned empty profile for %v", w)
		}
		profiles[w] = p
	}

	// The seeded arrival stream. Every draw is a counter-keyed hash of
	// (seed, job, purpose) so streams never perturb each other.
	var at sim.Time
	for i := 0; i < cfg.Jobs; i++ {
		at += expTime(u01(cfg.Seed, uint64(i), "interarrival"), cfg.MeanInterarrival)
		w := cfg.Workloads[int(bits(cfg.Seed, uint64(i), "workload")%uint64(len(cfg.Workloads)))]
		p := profiles[w]
		jitter := 1 + cfg.JitterFrac*(2*u01(cfg.Seed, uint64(i), "jitter")-1)
		j := &Job{
			ID:      i,
			Class:   drawClass(cfg.ClassWeights, u01(cfg.Seed, uint64(i), "class")),
			Load:    w,
			Arrival: at,
			Iters:   cfg.MinIters + int(u01(cfg.Seed, uint64(i), "iters")*float64(cfg.MaxIters-cfg.MinIters+1)),
			Profile: p,
			Actual:  int64(float64(p.SteadyPeak) * jitter),
			Device:  -1,
			State:   StatePending,
		}
		if j.Iters > cfg.MaxIters {
			j.Iters = cfg.MaxIters
		}
		if cfg.Admission == Predictive {
			j.Predicted = int64(float64(p.WarmupPeak) * (1 + cfg.SafetyMargin))
		}
		f.jobs = append(f.jobs, j)
		f.met.Add(mJobs, 1)
		f.met.Add(classed(mJobs, j.Class), 1)
	}
	return f, nil
}

// drawClass converts a uniform sample to a class under the weights
// (LOW, HIGH, CRITICAL order).
func drawClass(w [3]float64, u float64) Class {
	total := w[0] + w[1] + w[2]
	if total <= 0 {
		return Low
	}
	x := u * total
	if x < w[0] {
		return Low
	}
	if x < w[0]+w[1] {
		return High
	}
	return Critical
}

// Jobs exposes the job set for invariant checks in tests.
func (f *Fleet) Jobs() []*Job { return f.jobs }

// queueInsert places j into the admission queue in priority order:
// higher class first, then earlier arrival, then lower ID.
func (f *Fleet) queueInsert(j *Job) {
	j.State = StateQueued
	j.queuedAt = f.now
	i := sort.Search(len(f.queued), func(i int) bool {
		q := f.queued[i]
		if q.Class != j.Class {
			return q.Class < j.Class
		}
		if q.Arrival != j.Arrival {
			return q.Arrival > j.Arrival
		}
		return q.ID > j.ID
	})
	f.queued = append(f.queued, nil)
	copy(f.queued[i+1:], f.queued[i:])
	f.queued[i] = j
	f.emitQueueDepth()
}

// queueRemove drops j from the admission queue, closing its queued span
// on the scheduler timeline.
func (f *Fleet) queueRemove(j *Job) {
	for i, q := range f.queued {
		if q == j {
			f.queued = append(f.queued[:i], f.queued[i+1:]...)
			f.emitJobSpan(j, schedGroup, "queued", j.queuedAt, "", 0)
			f.emitQueueDepth()
			return
		}
	}
}

// advance moves virtual time forward, accumulating the fleet-occupancy
// integral.
func (f *Fleet) advance(to sim.Time) {
	if to < f.now {
		return
	}
	var used int64
	for _, d := range f.devs {
		used += d.pool.Used()
	}
	f.usedIntegral += float64(used) * (to - f.lastT).Seconds()
	f.lastT = to
	f.now = to
}

// decide emits one audit record when a tracer is attached.
func (f *Fleet) decide(j *Job, action, reason string, dev int, bytes int64) {
	if f.cfg.Tracer == nil {
		return
	}
	d := obs.Decision{
		At:     f.now,
		Policy: "fleet",
		Action: action,
		Reason: reason,
		Bytes:  bytes,
	}
	if j != nil {
		d.Tensor = fmt.Sprintf("job-%d", j.ID)
		d.Class = j.Class.String()
	}
	if dev >= 0 {
		d.Group = fmt.Sprintf("device %d", dev)
	}
	f.cfg.Tracer.Decide(d)
}
