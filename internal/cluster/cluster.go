// Package cluster simulates N-device data-parallel training on top of the
// single-device executor. Each replica owns a full exec.Session — its own
// device spec, BFC allocator and policy instance — and the replicas
// synchronize once per iteration at a gradient barrier, after ring
// all-reducing their gradients over a shared interconnect model
// (hw.PCIeRing).
//
// The interconnect couples back into memory management: all-reduce shards
// travel over the same per-replica host link that carries swap traffic,
// so the cluster publishes each iteration's predicted all-reduce windows
// to every replica's executor as an exec.CommModel. Transfers overlapping
// a window run at degraded bandwidth in every mode (contention is
// physics); with Config.CommAware set, the executor additionally defers
// swaps past windows when that finishes them earlier, and Capuchin's
// Free-Time estimates see the degraded effective bandwidth.
//
// Windows are predicted with a one-step lag: iteration i uses iteration
// i-1's realized all-reduce spans, rebased to iteration i's start.
// Iteration 0 runs windowless. The lag keeps the schedule deterministic —
// no fixed point iteration — and converges immediately for the static
// graphs the paper evaluates, whose gradient schedule repeats every
// iteration. A single-device cluster never communicates, installs no
// windows, and is byte-identical to a plain session.
package cluster

import (
	"fmt"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
)

// Config describes one data-parallel simulation.
type Config struct {
	// Devices is the replica count N (1 degenerates to single-device).
	Devices int
	// CommAware enables comm-aware swap scheduling in every replica's
	// executor. Off, all-reduce windows still degrade overlapping
	// transfers but the policy schedules as if the link were idle.
	CommAware bool
	// Build constructs one replica's training graph. Replicas must not
	// share tensors, so the graph is built once per replica.
	Build func(replica int) (*graph.Graph, error)
	// Exec returns one replica's executor configuration with a fresh
	// policy instance, given the replica's graph (graph-keyed policies
	// like vDNN need it). The cluster overrides the Comm, CommAware and
	// Tracer fields, so a replica's metrics come from folding the shared
	// Tracer's log (obs.BuildMetrics).
	Exec func(replica int, g *graph.Graph) (exec.Config, error)
	// Tracer receives every replica's events (stamped with "replica N"
	// groups) plus the interconnect lane; nil disables tracing.
	Tracer obs.Tracer
}

// IterStats aggregates one cluster iteration.
type IterStats struct {
	Iter int
	// Replicas holds each replica's own iteration statistics.
	Replicas []exec.IterStats
	// Duration is the barrier-to-barrier iteration time: the slowest
	// replica including its share of all-reduce traffic.
	Duration sim.Time
	// AllReduceBuckets and AllReduceBytes describe the gradient traffic;
	// AllReduceTime is the busy time of the interconnect (last bucket end
	// minus first bucket start).
	AllReduceBuckets int
	AllReduceBytes   int64
	AllReduceTime    sim.Time
	// ExposedComm is the barrier wait beyond the slowest replica's own
	// compute: all-reduce time not hidden behind execution.
	ExposedComm sim.Time
	// ParamFingerprint is the (identical) post-update parameter
	// fingerprint across replicas, the cross-replica consistency oracle.
	ParamFingerprint uint64
}

// Cluster is a running N-replica simulation.
type Cluster struct {
	cfg      Config
	replicas []*replica
	// predicted holds last iteration's realized all-reduce spans as
	// offsets from its iteration start, the one-step-lag window forecast.
	predicted []exec.CommWindow
	iter      int
}

type replica struct {
	id   int
	sess *exec.Session
	comm *windowModel
}

// windowModel is the per-replica CommModel: a sorted, non-overlapping
// window list installed by the cluster before each iteration.
type windowModel struct {
	windows []exec.CommWindow
}

// WindowAt implements exec.CommModel.
func (m *windowModel) WindowAt(t sim.Time) (exec.CommWindow, bool) {
	for _, w := range m.windows {
		if t >= w.Start && t < w.End {
			return w, true
		}
		if w.Start > t {
			break
		}
	}
	return exec.CommWindow{}, false
}

// New builds the cluster: one graph, policy and session per replica.
func New(cfg Config) (*Cluster, error) {
	if cfg.Devices <= 0 {
		cfg.Devices = 1
	}
	if cfg.Build == nil || cfg.Exec == nil {
		return nil, fmt.Errorf("cluster: Build and Exec constructors are required")
	}
	c := &Cluster{cfg: cfg}
	for i := 0; i < cfg.Devices; i++ {
		g, err := cfg.Build(i)
		if err != nil {
			return nil, fmt.Errorf("cluster: building replica %d: %w", i, err)
		}
		ec, err := cfg.Exec(i, g)
		if err != nil {
			return nil, fmt.Errorf("cluster: configuring replica %d: %w", i, err)
		}
		wm := &windowModel{}
		ec.Comm = wm
		ec.CommAware = cfg.CommAware
		ec.Tracer = nil
		if cfg.Tracer != nil {
			ec.Tracer = obs.GroupTracer{T: cfg.Tracer, Group: fmt.Sprintf("replica %d", i)}
		}
		sess, err := exec.NewSession(g, ec)
		if err != nil {
			return nil, fmt.Errorf("cluster: replica %d session: %w", i, err)
		}
		c.replicas = append(c.replicas, &replica{id: i, sess: sess, comm: wm})
	}
	return c, nil
}

// Devices reports the replica count.
func (c *Cluster) Devices() int { return len(c.replicas) }

// Replica exposes one replica's session for inspection.
func (c *Cluster) Replica(i int) *exec.Session { return c.replicas[i].sess }

// sessionNow reports a session's current virtual time: the front of its
// furthest-advanced stream.
func sessionNow(s *exec.Session) sim.Time {
	compute, h2d, d2h := s.Streams()
	t := compute.AvailableAt()
	t = sim.MaxTime(t, h2d.AvailableAt())
	return sim.MaxTime(t, d2h.AvailableAt())
}

// RunIteration executes one data-parallel iteration: install the window
// forecast, run every replica, ring all-reduce the gradient buckets,
// advance everyone to the gradient barrier and roll the forecast.
func (c *Cluster) RunIteration() (IterStats, error) {
	st := IterStats{Iter: c.iter}
	iterStart := sessionNow(c.replicas[0].sess)

	// Install the one-step-lag forecast, rebased to this iteration.
	for _, r := range c.replicas {
		r.comm.windows = r.comm.windows[:0]
		for _, w := range c.predicted {
			r.comm.windows = append(r.comm.windows, exec.CommWindow{
				Start: iterStart + w.Start, End: iterStart + w.End, Slowdown: w.Slowdown,
			})
		}
	}

	for _, r := range c.replicas {
		rs, err := r.sess.RunIteration()
		st.Replicas = append(st.Replicas, rs)
		if err != nil {
			return st, fmt.Errorf("replica %d: %w", r.id, err)
		}
	}

	// Cross-replica consistency: symmetric data-parallel replicas apply
	// identical updates, so their parameter fingerprints must agree.
	st.ParamFingerprint = st.Replicas[0].ParamFingerprint
	for i, rs := range st.Replicas {
		if rs.ParamFingerprint != st.ParamFingerprint {
			return st, fmt.Errorf("cluster: replica %d parameter fingerprint %x diverged from replica 0's %x",
				i, rs.ParamFingerprint, st.ParamFingerprint)
		}
	}

	// Ring all-reduce the gradient buckets over the shared interconnect.
	barrier := sim.Time(0)
	for _, r := range c.replicas {
		barrier = sim.MaxTime(barrier, sessionNow(r.sess))
	}
	var realized []exec.CommWindow
	if len(c.replicas) > 1 {
		ic := hw.PCIeRing()
		buckets := coalesce(c.replicas[0].sess.GradSchedule(), ic.BucketBytes)
		prevEnd := sim.Time(0)
		for k, b := range buckets {
			start := sim.MaxTime(b.ready, prevEnd)
			end := start + ic.AllReduceTime(len(c.replicas), b.bytes)
			prevEnd = end
			realized = append(realized, exec.CommWindow{
				Start: start, End: end, Slowdown: ic.ContentionSlowdown,
			})
			st.AllReduceBuckets++
			st.AllReduceBytes += b.bytes
			if c.cfg.Tracer != nil {
				c.cfg.Tracer.Emit(obs.Event{
					Kind: obs.KindSpan, Cat: "allreduce",
					Name: fmt.Sprintf("allreduce bucket %d", k), Lane: "allreduce",
					Group: "interconnect", Start: start, End: end, Iter: c.iter,
					Bytes: b.bytes,
				})
			}
			barrier = sim.MaxTime(barrier, end)
		}
		if n := len(realized); n > 0 {
			st.AllReduceTime = realized[n-1].End - realized[0].Start
		}
	}

	// Gradient barrier: every replica waits for the slowest replica and
	// the last all-reduce bucket before starting the next iteration.
	slowest := sim.Time(0)
	for _, rs := range st.Replicas {
		if rs.Duration > slowest {
			slowest = rs.Duration
		}
	}
	for _, r := range c.replicas {
		r.sess.AdvanceTo(barrier)
	}
	st.Duration = barrier - iterStart
	if exposed := st.Duration - slowest; exposed > 0 {
		st.ExposedComm = exposed
	}

	// Roll the forecast: next iteration expects this one's realized
	// spans, as offsets from this iteration's start.
	c.predicted = c.predicted[:0]
	for _, w := range realized {
		if w.End <= w.Start {
			continue
		}
		c.predicted = append(c.predicted, exec.CommWindow{
			Start: w.Start - iterStart, End: w.End - iterStart, Slowdown: w.Slowdown,
		})
	}
	c.iter++
	return st, nil
}

// Run executes n iterations, stopping at the first failure.
func (c *Cluster) Run(n int) ([]IterStats, error) {
	stats := make([]IterStats, 0, n)
	for i := 0; i < n; i++ {
		st, err := c.RunIteration()
		stats = append(stats, st)
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// bucket is one gradient fusion bucket: payload size and the virtual
// time its last gradient materialized.
type bucket struct {
	bytes int64
	ready sim.Time
}

// coalesce folds the gradient schedule into fusion buckets of at least
// bucketBytes (NCCL/Horovod style): gradients accumulate in production
// order and a bucket closes once full; the tail flushes as a final
// smaller bucket.
func coalesce(grads []exec.GradEvent, bucketBytes int64) []bucket {
	if bucketBytes <= 0 {
		bucketBytes = hw.PCIeRing().BucketBytes
	}
	var out []bucket
	var cur bucket
	for _, g := range grads {
		cur.bytes += g.Bytes
		cur.ready = sim.MaxTime(cur.ready, g.At)
		if cur.bytes >= bucketBytes {
			out = append(out, cur)
			cur = bucket{}
		}
	}
	if cur.bytes > 0 {
		out = append(out, cur)
	}
	return out
}
