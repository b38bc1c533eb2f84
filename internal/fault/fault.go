// Package fault provides seeded, deterministic fault injection for the
// simulator. A Plan describes which degraded conditions exist — transient
// PCIe transfer failures, bandwidth-degradation windows, kernel latency
// spikes, spurious device-allocation failures and pinned-host pressure —
// and an Injector answers the executor's per-event queries reproducibly:
// the same Plan always yields the same fault schedule, independent of how
// queries for unrelated subjects interleave.
//
// Determinism matters because the executor's recovery paths (retry with
// backoff, swap-to-recompute fallback, passive OOM recovery) must be
// testable: a chaos run is only debuggable if its seed replays it exactly.
// Each decision is therefore drawn from a counter-keyed hash of
// (seed, site, subject) rather than from a shared sequential RNG, so adding
// a query at one site never shifts the draws of another.
package fault

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"capuchin/internal/sim"
)

// ErrInjected marks failures that originate from the injector rather than
// from a genuine resource shortage. Recovery code uses
// errors.Is(err, fault.ErrInjected) to distinguish transient injected
// faults (worth retrying) from structural ones.
var ErrInjected = errors.New("injected fault")

// Direction identifies one PCIe transfer direction.
type Direction int

// Transfer directions.
const (
	// H2D is host-to-device (swap-in / prefetch).
	H2D Direction = iota
	// D2H is device-to-host (swap-out / passive eviction).
	D2H
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == D2H {
		return "d2h"
	}
	return "h2d"
}

// Default recovery parameters applied when a Plan leaves them zero.
const (
	// DefaultTransferRetries is the retry budget per logical transfer.
	DefaultTransferRetries = 3
	// DefaultKernelSpikeFactor multiplies a spiked kernel's duration.
	DefaultKernelSpikeFactor = 4.0
)

// DefaultRetryBackoff is the base virtual-time backoff before re-issuing a
// failed transfer; it doubles per attempt (sim.Backoff).
const DefaultRetryBackoff = 25 * sim.Microsecond

// Plan is a reproducible fault schedule. The zero value injects nothing.
//
// Plan is a flat, comparable struct on purpose: bench.RunConfig embeds it
// and uses the whole config as a result-cache key.
type Plan struct {
	// Seed selects the schedule; two runs with equal Plans (same seed
	// included) observe identical faults.
	Seed uint64

	// TransferFailRate is the probability in [0,1] that one H2D/D2H DMA
	// attempt aborts mid-flight. The executor retries with backoff up to
	// MaxTransferRetries before declaring the transfer failed.
	TransferFailRate float64
	// MaxTransferRetries bounds retry attempts per logical transfer;
	// 0 means DefaultTransferRetries.
	MaxTransferRetries int
	// RetryBackoff is the base virtual-time delay before the first retry,
	// doubling per attempt; 0 means DefaultRetryBackoff.
	RetryBackoff sim.Time

	// DegradeFactor (>= 1) multiplies transfer durations inside
	// degradation windows, modelling PCIe contention from a co-located
	// job. 0 or 1 disables degradation.
	DegradeFactor float64
	// DegradePeriod is the distance between consecutive window starts in
	// virtual time; 0 disables windows.
	DegradePeriod sim.Time
	// DegradeDuration is the length of each window.
	DegradeDuration sim.Time

	// KernelSpikeRate is the probability that one kernel's duration is
	// multiplied by KernelSpikeFactor (clock throttling, SM contention).
	KernelSpikeRate float64
	// KernelSpikeFactor is the spike multiplier; 0 means
	// DefaultKernelSpikeFactor.
	KernelSpikeFactor float64

	// AllocFailRate is the probability that one device allocation attempt
	// fails spuriously even though memory is available (cudaMalloc
	// returning a transient error). The executor's OOM recovery loop
	// retries these.
	AllocFailRate float64
	// HostFailRate is the probability that one pinned-host reservation
	// fails spuriously (host arena pressure from other pinned users).
	HostFailRate float64
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return p.TransferFailRate > 0 ||
		(p.DegradeFactor > 1 && p.DegradePeriod > 0 && p.DegradeDuration > 0) ||
		p.KernelSpikeRate > 0 || p.AllocFailRate > 0 || p.HostFailRate > 0
}

// TransferRetries reports the effective retry budget.
func (p Plan) TransferRetries() int {
	if p.MaxTransferRetries > 0 {
		return p.MaxTransferRetries
	}
	return DefaultTransferRetries
}

// Backoff reports the effective base retry backoff.
func (p Plan) Backoff() sim.Time {
	if p.RetryBackoff > 0 {
		return p.RetryBackoff
	}
	return DefaultRetryBackoff
}

// SpikeFactor reports the effective kernel spike multiplier.
func (p Plan) SpikeFactor() float64 {
	if p.KernelSpikeFactor > 0 {
		return p.KernelSpikeFactor
	}
	return DefaultKernelSpikeFactor
}

// String renders the plan in ParsePlan's canonical key=value form: the
// output is itself a valid -faults spec, and every valid plan re-parses to
// an equal plan (ParsePlan(p.String()) == p). The zero plan prints "off".
//
// Floats use the shortest representation that round-trips exactly, and
// time fields print in ParsePlan's units (microseconds for backoff,
// milliseconds for the degradation window geometry). When a degradation
// factor is set, the period and window are always emitted — even when
// zero — so ParsePlan's defaulting cannot resurrect fields the plan left
// empty.
func (p Plan) String() string {
	if p == (Plan{}) {
		return "off"
	}
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	if p.Seed != 0 {
		add("seed", strconv.FormatUint(p.Seed, 10))
	}
	if p.TransferFailRate != 0 {
		add("transfer", f(p.TransferFailRate))
	}
	if p.MaxTransferRetries != 0 {
		add("retries", strconv.Itoa(p.MaxTransferRetries))
	}
	if p.RetryBackoff != 0 {
		add("backoff", f(float64(p.RetryBackoff)/float64(sim.Microsecond)))
	}
	if p.DegradeFactor != 0 {
		add("degrade", f(p.DegradeFactor))
		add("degrade-period", f(float64(p.DegradePeriod)/float64(sim.Millisecond)))
		add("degrade-window", f(float64(p.DegradeDuration)/float64(sim.Millisecond)))
	} else {
		if p.DegradePeriod != 0 {
			add("degrade-period", f(float64(p.DegradePeriod)/float64(sim.Millisecond)))
		}
		if p.DegradeDuration != 0 {
			add("degrade-window", f(float64(p.DegradeDuration)/float64(sim.Millisecond)))
		}
	}
	if p.KernelSpikeRate != 0 {
		add("kernel", f(p.KernelSpikeRate))
	}
	if p.KernelSpikeFactor != 0 {
		add("kernel-factor", f(p.KernelSpikeFactor))
	}
	if p.AllocFailRate != 0 {
		add("alloc", f(p.AllocFailRate))
	}
	if p.HostFailRate != 0 {
		add("host", f(p.HostFailRate))
	}
	return strings.Join(parts, ",")
}

// DefaultPlan is a moderate chaos profile: occasional transfer aborts and
// allocation hiccups, periodic 4x PCIe degradation, rare kernel spikes.
func DefaultPlan(seed uint64) Plan {
	return Plan{
		Seed:             seed,
		TransferFailRate: 0.02,
		DegradeFactor:    4,
		DegradePeriod:    40 * sim.Millisecond,
		DegradeDuration:  8 * sim.Millisecond,
		KernelSpikeRate:  0.01,
		AllocFailRate:    0.01,
		HostFailRate:     0.005,
	}
}

// ParsePlan builds a Plan from a comma-separated key=value spec, the format
// of capuchin-bench's -faults flag. An empty spec or "off" disables
// injection; "default" (optionally "default,seed=N,...") starts from
// DefaultPlan and applies overrides. Keys:
//
//	seed=N          schedule seed
//	transfer=F      transfer failure probability
//	retries=N       retry budget per transfer
//	backoff=US      base retry backoff in microseconds
//	degrade=F       slowdown factor inside degradation windows
//	degrade-period=MS   window spacing in milliseconds
//	degrade-window=MS   window length in milliseconds
//	kernel=F        kernel spike probability
//	kernel-factor=F kernel spike multiplier
//	alloc=F         spurious device-allocation failure probability
//	host=F          spurious pinned-host reservation failure probability
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		if field == "default" {
			p = DefaultPlan(p.Seed)
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault: malformed field %q (want key=value)", field)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: bad seed %q: %v", v, err)
			}
			p.Seed = n
		case "retries":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return Plan{}, fmt.Errorf("fault: bad retries %q", v)
			}
			p.MaxTransferRetries = n
		case "backoff", "degrade-period", "degrade-window":
			unit := sim.Millisecond
			if k == "backoff" {
				unit = sim.Microsecond
			}
			f, err := parseRatio(v)
			if err != nil || f < 0 || f*float64(unit) > float64(maxPlanTime) {
				return Plan{}, fmt.Errorf("fault: bad %s %q (want 0 to %v)", k, v, maxPlanTime)
			}
			switch k {
			case "backoff":
				p.RetryBackoff = roundTime(f, unit)
			case "degrade-period":
				p.DegradePeriod = roundTime(f, unit)
			case "degrade-window":
				p.DegradeDuration = roundTime(f, unit)
			}
		case "transfer", "degrade", "kernel", "kernel-factor", "alloc", "host":
			f, err := parseRatio(v)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: bad %s %q: %v", k, v, err)
			}
			switch k {
			case "transfer":
				p.TransferFailRate = f
			case "degrade":
				p.DegradeFactor = f
				if p.DegradePeriod == 0 {
					p.DegradePeriod = 40 * sim.Millisecond
				}
				if p.DegradeDuration == 0 {
					p.DegradeDuration = 8 * sim.Millisecond
				}
			case "kernel":
				p.KernelSpikeRate = f
			case "kernel-factor":
				p.KernelSpikeFactor = f
			case "alloc":
				p.AllocFailRate = f
			case "host":
				p.HostFailRate = f
			}
		default:
			return Plan{}, fmt.Errorf("fault: unknown field %q", k)
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// parseRatio parses a finite float. NaN would slip past every range
// check and never equal itself, and infinities overflow virtual time.
func parseRatio(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("%q is not a finite number", v)
	}
	return f, err
}

// maxPlanTime caps the plan's durations at 2^50 ns (about 13 virtual
// days): far past any simulated run, and small enough that String's
// microsecond and millisecond renderings re-parse to the exact
// nanosecond.
const maxPlanTime = sim.Time(1) << 50

// roundTime converts a float duration in the given unit to virtual time,
// rounding to the nearest nanosecond. Truncation would break the
// String↔ParsePlan round trip: a nanosecond-granular field printed in
// microseconds picks up a one-ulp float error that truncation turns into
// a whole lost nanosecond.
func roundTime(v float64, unit sim.Time) sim.Time {
	return sim.Time(math.Round(v * float64(unit)))
}

// Validate reports configuration errors (rates out of [0,1] or NaN, a
// degradation window longer than its period, a sub-unity slowdown, a
// duration that is negative or above maxPlanTime).
func (p Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"transfer", p.TransferFailRate},
		{"kernel", p.KernelSpikeRate},
		{"alloc", p.AllocFailRate},
		{"host", p.HostFailRate},
	} {
		if !(r.v >= 0 && r.v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("fault: %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	if p.DegradeFactor != 0 && !(p.DegradeFactor >= 1) {
		return fmt.Errorf("fault: degrade factor %v below 1 (would speed the link up)", p.DegradeFactor)
	}
	for _, d := range []struct {
		name string
		v    sim.Time
	}{
		{"retry backoff", p.RetryBackoff},
		{"degrade period", p.DegradePeriod},
		{"degrade window", p.DegradeDuration},
	} {
		if d.v < 0 {
			return fmt.Errorf("fault: negative %s %v", d.name, d.v)
		}
		if d.v > maxPlanTime {
			return fmt.Errorf("fault: %s %v above the %v limit", d.name, d.v, maxPlanTime)
		}
	}
	if p.MaxTransferRetries < 0 {
		return fmt.Errorf("fault: negative retry budget %d", p.MaxTransferRetries)
	}
	if p.DegradePeriod > 0 && p.DegradeDuration > p.DegradePeriod {
		return fmt.Errorf("fault: degrade window %v longer than period %v", p.DegradeDuration, p.DegradePeriod)
	}
	if p.KernelSpikeFactor != 0 && !(p.KernelSpikeFactor >= 1) {
		return fmt.Errorf("fault: kernel spike factor %v below 1", p.KernelSpikeFactor)
	}
	return nil
}

// Injector answers per-event fault queries for one Plan. It is not safe
// for concurrent use; each exec.Session owns one.
type Injector struct {
	plan Plan
	// enabled caches plan.Enabled(): the executor asks on every
	// allocation, kernel and transfer, and the plan never changes.
	enabled  bool
	degPhase sim.Time
	counts   map[uint64]uint64
}

// NewInjector builds an injector for the plan. A zero plan yields a
// disabled injector whose queries all answer "no fault" at negligible cost.
func NewInjector(p Plan) *Injector {
	in := &Injector{plan: p, enabled: p.Enabled()}
	if in.enabled {
		in.counts = make(map[uint64]uint64)
		if p.DegradePeriod > 0 {
			in.degPhase = sim.Time(splitmix64(p.Seed^0x9e3779b97f4a7c15) % uint64(p.DegradePeriod))
		}
	}
	return in
}

// Enabled reports whether the injector can produce any fault.
func (in *Injector) Enabled() bool { return in != nil && in.enabled }

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// draw returns a deterministic uniform sample in [0,1) for the n-th query
// at (site, key). The counter is keyed by the pair, so retries observe
// fresh draws while queries for other subjects never perturb this stream.
func (in *Injector) draw(site string, key string) float64 {
	h := hashString(site)
	h = hashCombine(h, hashString(key))
	n := in.counts[h]
	in.counts[h] = n + 1
	bits := splitmix64(in.plan.Seed ^ h ^ (n * 0xbf58476d1ce4e5b9))
	return float64(bits>>11) / float64(1<<53)
}

// decide draws once.
func (in *Injector) decide(site, key string, rate float64) bool {
	if !in.Enabled() || rate <= 0 {
		return false
	}
	return in.draw(site, key) < rate
}

// TransferFails reports whether one DMA attempt for the given subject
// (tensor ID) aborts mid-flight. It builds the site string only when the
// plan can inject a fault.
func (in *Injector) TransferFails(dir Direction, key string) bool {
	if !in.Enabled() {
		return false
	}
	return in.decide("transfer/"+dir.String(), key, in.plan.TransferFailRate)
}

// LinkSlowdown reports the transfer-duration multiplier in effect at the
// given virtual time: DegradeFactor inside a degradation window, 1 outside.
func (in *Injector) LinkSlowdown(at sim.Time) float64 {
	if !in.Enabled() || in.plan.DegradeFactor <= 1 || in.plan.DegradePeriod <= 0 {
		return 1
	}
	if at < 0 {
		return 1
	}
	pos := (at + in.degPhase) % in.plan.DegradePeriod
	if pos < in.plan.DegradeDuration {
		return in.plan.DegradeFactor
	}
	return 1
}

// LinkDegraded reports whether a degradation window is in effect at the
// given time — the signal the executor uses to prefer recomputation over a
// congested link.
func (in *Injector) LinkDegraded(at sim.Time) bool { return in.LinkSlowdown(at) > 1 }

// KernelSpike reports the duration multiplier for one kernel launch: the
// plan's spike factor when a spike fires, 1 otherwise.
func (in *Injector) KernelSpike(nodeID string) float64 {
	if in.decide("kernel", nodeID, in.plan.KernelSpikeRate) {
		return in.plan.SpikeFactor()
	}
	return 1
}

// AllocFails reports whether one device-allocation attempt fails
// spuriously.
func (in *Injector) AllocFails(site string) bool {
	return in.decide("alloc", site, in.plan.AllocFailRate)
}

// HostFails reports whether one pinned-host reservation fails spuriously.
func (in *Injector) HostFails(key string) bool {
	return in.decide("host", key, in.plan.HostFailRate)
}

// splitmix64 is the SplitMix64 finalizer: a high-quality 64-bit mixer used
// to turn (seed, site, counter) into independent uniform bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString is FNV-1a over s.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// hashCombine folds b into a.
func hashCombine(a, b uint64) uint64 {
	return splitmix64(a ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2)))
}
