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

// band is a tenant class's fleet-wide memory share: the controller keeps
// the class's total reserved bytes at or below maxFrac of fleet memory,
// and refuses admissions of lower classes that would eat into the
// unfilled minFrac reservations of higher ones.
type band struct {
	minFrac float64
	maxFrac float64
}

// classBands is the priority-tiered partitioning: CRITICAL is guaranteed
// 30% and may take everything, HIGH is guaranteed 15% and capped at 85%,
// LOW gets no guarantee and at most 75%. Max caps keep a class from
// monopolizing the fleet while contention lasts; min guarantees are
// enforced dynamically (preemption and its minFrac shield), not by
// idling memory. AdmitAll ignores the bands.
var classBands = [numClasses]band{
	Critical: {minFrac: 0.30, maxFrac: 1.00},
	High:     {minFrac: 0.15, maxFrac: 0.85},
	Low:      {minFrac: 0.00, maxFrac: 0.75},
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

// DefaultWarmupIters is the sandbox warmup length in iterations: the
// delay the fleet charges a job before admission, its on-device ramp to
// full footprint, and the prefix of the profiling run whose allocator
// peak a Profiler reports as WarmupPeak. One constant keeps them from
// drifting apart.
const DefaultWarmupIters = 2

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
	// (default 16 GiB).
	Devices      int
	DeviceMemory int64
	// Admission and Manager select the controller and the per-job
	// memory manager.
	Admission AdmissionMode
	Manager   Manager
	// Profiler measures workload profiles (required).
	Profiler Profiler
	// Workloads is the menu the arrival stream samples from (required).
	Workloads []Workload
	// MeanInterarrival is the mean of the exponential inter-arrival
	// distribution (default 50 ms).
	MeanInterarrival sim.Time
	// JitterFrac is the ± relative spread of a job's realized peak
	// around the workload's steady peak (default 0.15) — the predictor's
	// irreducible error source.
	JitterFrac float64
	// Tracer, when non-nil, receives an audit Decision for every
	// admission-controller choice plus the fleet timeline: a span per
	// job lifecycle phase, per-device memory counter tracks, a
	// queue-depth gauge, and instants for admissions, preemptions and
	// OOM kills. Tracing is outcome-neutral: a traced run's Report is
	// byte-identical to an untraced one.
	Tracer obs.Tracer
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
	if c.MeanInterarrival == 0 {
		c.MeanInterarrival = 50 * sim.Millisecond
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = 0.15
	}
	if c.JitterFrac < 0 || c.JitterFrac >= 1 {
		return c, fmt.Errorf("fleet: JitterFrac %v outside [0,1)", c.JitterFrac)
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
	// held is the bytes its resident jobs hold, per class: the device's
	// share of classUsed, kept by allocOn and releaseAllocs beside it.
	held [numClasses]int64
}

// worstFit is place's cached argmax: the device with the largest free
// chunk (the lowest index on ties) and that chunk's size, as scanned at
// pool version ver. ok is false until the first scan.
type worstFit struct {
	ver  uint64
	ok   bool
	dev  int
	free int64
}

// Fleet is one scenario's scheduler state. Build with New, drive with
// Run; a Fleet is single-use.
type Fleet struct {
	cfg        Config
	jobs       []*Job
	devs       []*device
	fleetAlloc int64 // total fleet memory
	maxDev     int64 // device capacity

	// maxQueue bounds the admission queue (queuePerDevice × Devices);
	// beyond it the controller sheds lowest-class, youngest jobs. bands
	// are the per-class memory bands (classBands).
	maxQueue int
	bands    [numClasses]band

	q      eventQueue
	queued []*Job // admission queue, kept in priority order

	// classUsed tracks reserved bytes per class, fleet-wide.
	classUsed [numClasses]int64

	// poolVer counts device pool changes: allocOn bumps it on every
	// successful TryAlloc, releaseAllocs on every release that frees
	// something. place rescans for the worst-fit argmax only when it has
	// moved since fit was taken.
	poolVer uint64
	fit     worstFit

	now          sim.Time
	lastT        sim.Time
	usedIntegral float64 // ∫ Σ pool.Used dt
	goodput      float64 // Σ byte·seconds of work owned by completed jobs

	// met is the run's metric registry: every Report counter is derived
	// from it, and per-class queue-wait/JCT histograms accumulate here.
	met *obs.Metrics
}

// The arrival stream and admission constants. A job trains for
// minIters..maxIters iterations; the predictor inflates a warmup peak by
// safetyMargin; the admission queue holds queuePerDevice jobs per device.
const (
	minIters       = 20
	maxIters       = 120
	safetyMargin   = 0.10
	queuePerDevice = 4
)

// New builds a fleet scenario: it samples the arrival stream, profiles
// every distinct workload on the menu, and initializes the devices.
func New(cfg Config) (*Fleet, error) {
	cfg, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:        cfg,
		met:        obs.NewMetrics(),
		fleetAlloc: int64(cfg.Devices) * cfg.DeviceMemory,
		maxQueue:   queuePerDevice * cfg.Devices,
		bands:      classBands,
	}

	// Devices.
	for i := 0; i < cfg.Devices; i++ {
		f.devs = append(f.devs, &device{
			id:   i,
			pool: memory.NewBFC(cfg.DeviceMemory),
			jobs: make(map[int]*Job),
		})
	}
	f.maxDev = f.devs[0].pool.Capacity()

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
		jitter := 1 + float64(cfg.JitterFrac*(2*float64(u01(cfg.Seed, uint64(i), "jitter"))-1))
		j := &Job{
			ID:      i,
			Class:   drawClass(u01(cfg.Seed, uint64(i), "class")),
			Load:    w,
			Arrival: at,
			Iters:   minIters + int(u01(cfg.Seed, uint64(i), "iters")*float64(maxIters-minIters+1)),
			Profile: p,
			Actual:  int64(float64(p.SteadyPeak) * jitter),
			Device:  -1,
			State:   StatePending,
		}
		if j.Iters > maxIters {
			j.Iters = maxIters
		}
		if cfg.Admission == Predictive {
			j.Predicted = int64(float64(p.WarmupPeak) * (1 + safetyMargin))
		}
		f.jobs = append(f.jobs, j)
		f.met.Add(mJobs, 1)
		f.met.Add(mJobsBy[j.Class], 1)
	}
	return f, nil
}

// drawClass converts a uniform sample to a class under the arrival
// stream's 5:3:2 LOW:HIGH:CRITICAL weights.
func drawClass(u float64) Class {
	const low, high, critical = 5, 3, 2
	x := u * (low + high + critical)
	if x < low {
		return Low
	}
	if x < low+high {
		return High
	}
	return Critical
}

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
			f.emitJobSpan(j, -1, "queued", j.queuedAt, "", 0)
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
	f.usedIntegral += float64(float64(used) * (to - f.lastT).Seconds())
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
		d.Group = deviceGroup(dev)
	}
	f.cfg.Tracer.Decide(d)
}
