package exec

import (
	"fmt"
	"math"
	"strings"

	"capuchin/internal/graph"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
)

// This file is the dynamic workload engine: training where the tensor
// geometry changes between iterations (variable batch sizes, bucketed
// sequence lengths, eager-style shape drift — Capuchin §3). A
// DynamicSession keeps one executor session per shape signature in a
// small LRU, carries virtual time forward across switches so the
// timeline stays monotonic, and — when the policy supports re-planning
// — detects plans gone stale against their measured baseline and
// triggers a bounded re-measurement pass mid-training. Everything is a
// pure function of the configuration: a dynamic run is as deterministic
// as a static one.

// ShapeSchedule yields each iteration's tensor geometry. models.Schedule
// satisfies it; the interface lives here so neither package imports the
// other.
type ShapeSchedule interface {
	// At returns the batch size and sequence length of iteration iter;
	// seq is 0 for workloads without a sequence axis.
	At(iter int) (batch, seq int64)
}

// SigKey formats the canonical shape-signature key of a (batch, seq)
// pair, e.g. "b32" or "b32/s128".
func SigKey(batch, seq int64) string {
	if seq == 0 {
		return fmt.Sprintf("b%d", batch)
	}
	return fmt.Sprintf("b%d/s%d", batch, seq)
}

// ShapeSwitch is the action of the decision a dynamic session records
// when it switches shape signatures. Its Reason is "prev -> next", which
// SwitchSigs reads back.
const ShapeSwitch = "shape-switch"

// switchArrow separates the two signatures of a shape-switch Reason.
const switchArrow = " -> "

// SwitchSigs returns the signatures a shape-switch decision's Reason
// names: the one switched from and the one switched to.
func SwitchSigs(reason string) (prev, next string, ok bool) {
	return strings.Cut(reason, switchArrow)
}

// Replanner is the optional policy surface for online re-planning
// (core.Capuchin implements it): plans are keyed by shape signature,
// cached across signature switches, and rebuilt from a fresh measured
// pass when invalidated.
type Replanner interface {
	Policy
	// BeginSignature installs the plan state for a signature before its
	// first iteration runs, returning whether a guided plan is active
	// (false schedules a measured pass). Tensor bindings reset.
	BeginSignature(sig string, env *Env) bool
	// InvalidatePlan drops the active signature's plan and schedules a
	// bounded re-measurement pass starting next iteration.
	InvalidatePlan(reason string, env *Env)
	// Planned reports whether a guided plan is currently active.
	Planned() bool
}

// The dynamic engine's constants. maxSessions bounds the per-signature
// session cache. The staleness detector invalidates a plan after
// patience consecutive stale iterations, at most maxReplans times per
// run. An iteration is stale when its access count deviates from the
// baseline by more than accessDrift (access counts are graph-structural,
// so this only fires on a genuine shape/plan mismatch, never on eviction
// jitter); when on-demand swap-ins exceed onDemandFactor times the
// baseline, floored at minOnDemand (the plan's prefetch triggers fire too
// late for the running pattern); or when stall time exceeds stallFactor
// times the baseline, floored at minStall.
const (
	maxSessions    = 4
	patience       = 2
	maxReplans     = 8
	accessDrift    = 0.05
	onDemandFactor = 2
	minOnDemand    = 4
	stallFactor    = 4
	minStall       = sim.Millisecond
)

// DynamicConfig configures a DynamicSession.
type DynamicConfig struct {
	// Base is the per-session executor configuration; its Policy is
	// shared across all signatures (a Replanner re-keys its plan per
	// signature; stateless policies just run).
	Base Config
	// Build constructs the graph for one shape signature.
	Build func(batch, seq int64) (*graph.Graph, error)
	// Schedule yields each iteration's shape.
	Schedule ShapeSchedule
}

// DynamicStats counts the dynamic engine's structural events.
type DynamicStats struct {
	Iterations    int
	Signatures    int // distinct signatures seen
	SessionBuilds int // sessions constructed (including LRU rebuild)
	SessionEvicts int
	Switches      int // signature changes after the first
	PlanCacheHits int // switches resolved by a cached plan
	Replans       int // plan builds after the first (re-measured passes)
	Invalidations int // staleness-triggered invalidations
}

// BucketStats aggregates per-signature execution statistics.
type BucketStats struct {
	Sig        string
	Batch, Seq int64
	Iterations int
	// Measured counts this bucket's iterations run in measured or
	// re-measured (passive) mode.
	Measured   int
	Duration   sim.Time
	Stall      sim.Time
	PeakBytes  int64
	OnDemandIn int
	Recomputes int
}

// driftBaseline is the reference point staleness is measured against:
// the first guided iteration after a signature's plan was built.
type driftBaseline struct {
	accesses int
	onDemand int
	stall    sim.Time
}

// DynamicSession executes a shape schedule over per-signature executor
// sessions. It is not safe for concurrent use, mirroring Session.
type DynamicSession struct {
	cfg         DynamicConfig
	maxSessions int

	sessions map[string]*dynSession
	order    []string // LRU, least recently used first
	active   *dynSession

	rp            Replanner // nil when the policy cannot re-plan
	plannedEver   bool
	baselines     map[string]driftBaseline
	staleStreak   int
	replansIssued int

	iter        int
	stats       DynamicStats
	buckets     map[string]*BucketStats
	bucketOrder []string
}

type dynSession struct {
	key        string
	batch, seq int64
	s          *Session
}

// NewDynamicSession validates the configuration and prepares the engine;
// the first session is built lazily on the first iteration, so shape
// errors surface as run errors just like static OOM does.
func NewDynamicSession(cfg DynamicConfig) (*DynamicSession, error) {
	if cfg.Build == nil {
		return nil, fmt.Errorf("exec: dynamic: no Build function")
	}
	if cfg.Schedule == nil {
		return nil, fmt.Errorf("exec: dynamic: no shape schedule")
	}
	d := &DynamicSession{
		cfg:         cfg,
		maxSessions: maxSessions,
		sessions:    make(map[string]*dynSession),
		baselines:   make(map[string]driftBaseline),
		buckets:     make(map[string]*BucketStats),
	}
	d.rp, _ = cfg.Base.Policy.(Replanner)
	return d, nil
}

// RunIteration executes the next scheduled iteration, switching (and if
// needed building) the signature's session first.
func (d *DynamicSession) RunIteration() (IterStats, error) {
	batch, seq := d.cfg.Schedule.At(d.iter)
	key := SigKey(batch, seq)
	if d.active == nil || d.active.key != key {
		if err := d.switchTo(key, batch, seq); err != nil {
			return IterStats{}, err
		}
	}
	planBefore := d.rp != nil && d.rp.Planned()
	st, err := d.active.s.RunIteration()
	st.Iter = d.iter
	d.iter++
	d.stats.Iterations++
	d.recordBucket(key, batch, seq, planBefore, st)
	if err != nil {
		return st, err
	}
	if d.rp != nil && !planBefore && d.rp.Planned() {
		// A measured pass just completed. The first plan of the run is
		// the static regime's plan build and stays silent; later ones
		// are genuine online re-plans.
		if d.plannedEver {
			d.stats.Replans++
			d.active.s.decide(obs.Decision{
				Action: "re-plan",
				Reason: "re-measured pass complete; plan rebuilt for signature " + key,
			})
		}
		d.plannedEver = true
	}
	if planBefore {
		d.checkStaleness(key, st)
	}
	return st, nil
}

// Run executes n iterations, stopping at the first failure (the failed
// iteration's stats are included, mirroring Session.Run).
func (d *DynamicSession) Run(n int) ([]IterStats, error) {
	stats := make([]IterStats, 0, n)
	for i := 0; i < n; i++ {
		st, err := d.RunIteration()
		stats = append(stats, st)
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// switchTo makes key's session active, constructing it (and evicting the
// least recently used one beyond the cache bound) when absent.
func (d *DynamicSession) switchTo(key string, batch, seq int64) error {
	prev := d.active
	prevNow := d.now()
	e, ok := d.sessions[key]
	if !ok {
		g, err := d.cfg.Build(batch, seq)
		if err != nil {
			return fmt.Errorf("exec: dynamic: building graph for %s: %w", key, err)
		}
		s, err := NewSession(g, d.cfg.Base)
		if err != nil {
			return fmt.Errorf("exec: dynamic: session for %s: %w", key, err)
		}
		e = &dynSession{key: key, batch: batch, seq: seq, s: s}
		d.sessions[key] = e
		d.stats.SessionBuilds++
		if len(d.sessions) > d.maxSessions {
			victim := d.order[0]
			d.order = d.order[1:]
			delete(d.sessions, victim)
			d.stats.SessionEvicts++
		}
	}
	d.touch(key)
	d.active = e
	// Carry virtual time forward: sessions idle while other shapes run,
	// so their streams advance to the global now and the unified
	// timeline stays monotonic.
	e.s.AdvanceTo(prevNow)
	if d.rp != nil {
		hit := d.rp.BeginSignature(key, &Env{s: e.s})
		if prev != nil && hit {
			d.stats.PlanCacheHits++
		}
	}
	if prev != nil {
		d.stats.Switches++
		d.staleStreak = 0
		e.s.decide(obs.Decision{
			Action: ShapeSwitch,
			Reason: prev.key + switchArrow + key,
		})
	}
	return nil
}

// checkStaleness compares a guided iteration against its signature's
// baseline and invalidates the plan after patience consecutive stale
// iterations. The first guided iteration after a (re)build becomes the
// baseline: in a steady deterministic regime every later iteration
// matches it exactly, so the detector is silent unless the workload —
// or an injected fault window — genuinely shifts the pattern.
func (d *DynamicSession) checkStaleness(key string, st IterStats) {
	if d.rp == nil || !d.rp.Planned() {
		return
	}
	base, ok := d.baselines[key]
	if !ok {
		d.baselines[key] = driftBaseline{accesses: st.Accesses, onDemand: st.OnDemandInCount, stall: st.StallTime}
		return
	}
	reason := staleReason(base, st)
	if reason == "" {
		d.staleStreak = 0
		return
	}
	d.staleStreak++
	if d.staleStreak < patience || d.replansIssued >= maxReplans {
		return
	}
	d.rp.InvalidatePlan(reason, &Env{s: d.active.s})
	delete(d.baselines, key)
	d.stats.Invalidations++
	d.replansIssued++
	d.staleStreak = 0
}

// staleReason reports why an iteration diverges from its baseline, or
// "" when it tracks the plan's expectations.
func staleReason(base driftBaseline, st IterStats) string {
	if base.accesses > 0 {
		drift := math.Abs(float64(st.Accesses-base.accesses)) / float64(base.accesses)
		if drift > accessDrift {
			return fmt.Sprintf("access pattern drifted %.1f%% from measured baseline (%d vs %d accesses)",
				drift*100, st.Accesses, base.accesses)
		}
	}
	// A clean first guided iteration records zero on-demand swap-ins and
	// zero stall. Ratios against a zero (or near-zero) baseline misfire on
	// the first hint of noise, so both baselines are floored at the
	// absolute minimums: divergence below minOnDemand /
	// stallFactor*minStall is never stale, whatever the baseline was.
	baseOD := max(base.onDemand, minOnDemand)
	if st.OnDemandInCount >= minOnDemand && float64(st.OnDemandInCount) > onDemandFactor*float64(baseOD) {
		return fmt.Sprintf("on-demand swap-ins %dx baseline (%d vs %d); prefetch triggers misfiring",
			st.OnDemandInCount/baseOD, st.OnDemandInCount, base.onDemand)
	}
	baseStall := max(base.stall, minStall)
	if st.StallTime > minStall && float64(st.StallTime) > stallFactor*float64(baseStall) {
		return fmt.Sprintf("stall time %v vs baseline %v; plan no longer hides transfers",
			st.StallTime, base.stall)
	}
	return ""
}

// recordBucket folds one iteration into its signature's aggregate.
func (d *DynamicSession) recordBucket(key string, batch, seq int64, planBefore bool, st IterStats) {
	b, ok := d.buckets[key]
	if !ok {
		b = &BucketStats{Sig: key, Batch: batch, Seq: seq}
		d.buckets[key] = b
		d.bucketOrder = append(d.bucketOrder, key)
		d.stats.Signatures++
	}
	b.Iterations++
	if d.rp != nil && !planBefore {
		b.Measured++
	}
	b.Duration += st.Duration
	b.Stall += st.StallTime
	if st.PeakBytes > b.PeakBytes {
		b.PeakBytes = st.PeakBytes
	}
	b.OnDemandIn += st.OnDemandInCount
	b.Recomputes += st.RecomputeCount
}

// touch moves key to the most-recently-used end of the session LRU.
func (d *DynamicSession) touch(key string) {
	for i, k := range d.order {
		if k == key {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	d.order = append(d.order, key)
}

// now is the global virtual time: the furthest stream of the active
// session (sessions are quiescent at iteration boundaries).
func (d *DynamicSession) now() sim.Time {
	if d.active == nil {
		return 0
	}
	s := d.active.s
	t := s.compute.AvailableAt()
	for _, st := range []*sim.Stream{s.h2d, s.d2h, s.cpu} {
		if st != nil && st.AvailableAt() > t {
			t = st.AvailableAt()
		}
	}
	return t
}

// Stats reports the engine's structural counters.
func (d *DynamicSession) Stats() DynamicStats { return d.stats }

// Buckets reports per-signature aggregates in first-seen order.
func (d *DynamicSession) Buckets() []BucketStats {
	out := make([]BucketStats, 0, len(d.bucketOrder))
	for _, key := range d.bucketOrder {
		out = append(out, *d.buckets[key])
	}
	return out
}

// Active exposes the current signature's session (span and snapshot
// access for reports); nil before the first iteration.
func (d *DynamicSession) Active() *Session {
	if d.active == nil {
		return nil
	}
	return d.active.s
}
