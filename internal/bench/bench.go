// Package bench is the experiment harness: it assembles sessions for every
// system the paper compares (original framework, vDNN, OpenAI gradient
// checkpointing, Capuchin and its ablations), searches maximum batch sizes,
// measures steady-state training speed, and formats the tables and figure
// series of the paper's evaluation (§6).
package bench

import (
	"fmt"

	"capuchin/internal/core"
	"capuchin/internal/exec"
	"capuchin/internal/fault"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/memory"
	"capuchin/internal/models"
	"capuchin/internal/obs"

	// The harness discovers systems through the exec policy registry;
	// these imports exist only to run each package's registration.
	_ "capuchin/internal/policy/checkpoint"
	_ "capuchin/internal/policy/chunk"
	_ "capuchin/internal/policy/dtr"
	_ "capuchin/internal/policy/superneurons"
	_ "capuchin/internal/policy/vdnn"
)

// System names a memory-management configuration under test.
type System string

// The systems of the paper's evaluation (§6.1), Capuchin's breakdown
// configurations (§6.2), and the arena's rival policies. Each name is a
// key into the exec policy registry; the constants exist for call-site
// readability, not as the source of truth — SystemNames lists whatever is
// actually registered.
const (
	SystemTF                 System = "tf-ori"
	SystemVDNN               System = "vdnn"
	SystemSuperNeurons       System = "superneurons"
	SystemOpenAIMemory       System = "openai-m"
	SystemOpenAISpeed        System = "openai-s"
	SystemCapuchin           System = "capuchin"
	SystemCapuchinSwap       System = "capuchin-swap"        // ATP+DS+FA, swap only
	SystemCapuchinSwapNoFA   System = "capuchin-swap-nofa"   // ATP+DS
	SystemCapuchinRecompute  System = "capuchin-recomp"      // ATP+CR, recompute only
	SystemCapuchinRecompNoCR System = "capuchin-recomp-nocr" // ATP
	SystemDTR                System = "dtr"                  // h-DTR online rematerialization
	SystemChunk              System = "chunk"                // chunk-based placement
)

// SystemNames lists every registered system in sorted order.
func SystemNames() []string { return exec.PolicyNames() }

// RunConfig describes one simulated training run.
type RunConfig struct {
	Model  string
	Batch  int64
	System System
	Device hw.DeviceSpec
	Mode   exec.Mode
	// Iterations to run; 0 means 3 (one measured + two guided).
	Iterations int
	// Allocator selects "bfc" (default) or "firstfit".
	Allocator string
	// RecordSpans is ignored: a run's stream spans are folded from its
	// event log (trace.Spans).
	//
	// Deprecated: ignored; trace the run with an obs.Collector.
	RecordSpans bool
	// HostMemory overrides the 256 GiB pinned-host default.
	HostMemory int64
	// ForceCoupledSwap enables layer-wise swap synchronization regardless
	// of system (the decoupled-swap ablation).
	ForceCoupledSwap bool
	// Faults is the deterministic fault-injection plan; the zero value
	// injects nothing. Kept flat and comparable so RunConfig remains a
	// valid cache key for Runner's single-flight result cache.
	Faults fault.Plan
	// Schedule selects a dynamic shape schedule kind (a models.Schedule*
	// constant); "" runs the static path. Any non-empty kind — including
	// "constant" — routes through the dynamic engine, which makes the
	// constant schedule the differential check that the dynamic path adds
	// nothing: its stats must be byte-identical to the static run's.
	Schedule string
	// ScheduleSeed drives the schedule's deterministic shape sampler.
	ScheduleSeed uint64
	// SchedulePeriod is the number of iterations between shape re-samples
	// (0 = 2).
	SchedulePeriod int
	// Devices is the data-parallel replica count; 0 and 1 run the
	// single-device path. N > 1 simulates N replicas over a shared
	// PCIe-ring interconnect with a per-iteration gradient barrier.
	Devices int
	// CommOblivious disables comm-aware swap scheduling in multi-device
	// runs: all-reduce windows still degrade overlapping transfers (the
	// physics applies either way) but the executor schedules as if the
	// link were idle. Meaningless — and canonicalized away — for
	// single-device runs.
	CommOblivious bool
}

// Result is the outcome of one run. It is pure data: it reaches no
// session, policy, graph, tensor or event log, so a cached Result costs
// its stats and nothing more. RunLive hands out the live session and
// policy; a run's event log is the Collector its caller passed in.
type Result struct {
	Config RunConfig
	// OK is false when the run failed (OOM for the given system).
	OK  bool
	Err error
	// Stats holds per-iteration statistics; Steady is the last iteration
	// (the guided, post-plan regime for Capuchin).
	Stats  []exec.IterStats
	Steady exec.IterStats
	// Throughput is steady-state samples/second.
	Throughput float64
	// Plan summarizes Capuchin's decisions when applicable.
	Plan core.PlanSummary
	// Dynamic holds the dynamic engine's structural counters and
	// per-signature aggregates when RunConfig.Schedule was set.
	Dynamic *DynamicReport
	// Cluster holds the per-iteration cluster statistics when
	// RunConfig.Devices > 1.
	Cluster *ClusterReport
}

// planSummary reports a Capuchin policy's plan; other policies have none.
func planSummary(pol exec.Policy) core.PlanSummary {
	if c, ok := pol.(*core.Capuchin); ok {
		return c.Summary()
	}
	return core.PlanSummary{}
}

// buildOptions returns the graph build options for an execution mode.
func buildOptions(mode exec.Mode) graph.BuildOptions {
	if mode == exec.EagerMode {
		return graph.EagerModeOptions()
	}
	return graph.GraphModeOptions()
}

// execConfig assembles the executor configuration — policy included —
// for one validated run. g is nil on the dynamic path, where the graph
// changes per shape signature; Validate admits only graph-agnostic
// systems there (TF-ori and the Capuchin variants, which re-key their
// plan per signature). spare, when non-nil, is a parked policy the
// policy may be built in (exec.BuildContext.Spare). tr, when non-nil,
// receives the run's live event stream.
func execConfig(cfg RunConfig, g *graph.Graph, spare exec.Policy, tr obs.Tracer) (exec.Config, error) {
	ec := exec.Config{
		Device:     cfg.Device,
		Mode:       cfg.Mode,
		Allocator:  cfg.Allocator,
		HostMemory: cfg.HostMemory,
		Faults:     cfg.Faults,
		Tracer:     tr,
	}
	if err := ec.UsePolicy(string(cfg.System), g, spare); err != nil {
		return ec, fmt.Errorf("bench: %w", err)
	}
	ec.CoupledSwap = ec.CoupledSwap || cfg.ForceCoupledSwap
	return ec, nil
}

// Run executes one configuration.
func Run(cfg RunConfig) Result {
	res, _, _ := run(cfg, nil, nil)
	return res
}

// RunTraced executes one configuration like Run, additionally streaming
// the run's observability events and policy decisions to tr as they are
// emitted. Tracing is outcome-neutral — the Result is identical to
// Run's for the same configuration — which is what lets the Runner
// serve traced and untraced callers from one cache entry and what lets
// capuchin-serve stream live progress without perturbing results.
func RunTraced(cfg RunConfig, tr obs.Tracer) Result {
	res, _, _ := run(cfg, tr, nil)
	return res
}

// RunLive executes one configuration like RunTraced and also returns
// the run's live session and policy, for callers that inspect stream
// spans, the allocator or Capuchin's plan, or keep iterating the warm
// session. tr may be nil. Multi-device runs return replica 0's; dynamic
// runs the session of the last signature. Both are nil when the run
// failed before its session was built. It is never cached: whatever the
// caller keeps, it pins.
func RunLive(cfg RunConfig, tr obs.Tracer) (Result, *exec.Session, exec.Policy) {
	return run(cfg, tr, nil)
}

// run is the shared body of Run, RunTraced and RunLive. ts is the
// template set of the run's owner (a serve Server, a max-batch search, a
// fleet profiling setup), or nil. Every graph the run needs comes from
// ts; with a nil ts a static single-device run builds its graph, and a
// cluster or dynamic run owns a set of its own. A static single-device
// run on a set refills its template's spare graph and session and hands
// them back when it returns, so it returns no session or policy; only a
// run on a nil set (RunLive's) returns its live session.
func run(cfg RunConfig, extra obs.Tracer, ts *Templates) (Result, *exec.Session, exec.Policy) {
	res := Result{Config: cfg}
	cfg = cacheKey(cfg)
	if res.Err = cfg.Validate(); res.Err != nil {
		return res, nil, nil
	}
	spec, _ := models.Get(cfg.Model) // registered: Validate looked it up
	if cfg.Devices > 1 {
		return runCluster(cfg, spec, res, extra, ts)
	}
	if cfg.Schedule != "" {
		return runDynamic(cfg, spec, res, extra, ts)
	}
	p, err := ts.probe(spec, cfg.Mode, cfg.Batch)
	if err != nil {
		res.Err = err
		return res, nil, nil
	}
	res, s, pol := simulate(cfg, res, p.g, p.s, extra)
	if p.slot == nil {
		return res, s, pol
	}
	p.s = s
	p.recycle()
	return res, nil, nil
}

// simulate runs a static single-device cell on g in a session recycled
// from spare (nil builds a new one), with a policy built in the policy
// spare parked. It returns that session, or spare when building the
// session failed.
func simulate(cfg RunConfig, res Result, g *graph.Graph, spare *exec.Session, extra obs.Tracer) (Result, *exec.Session, exec.Policy) {
	var sparePolicy exec.Policy
	if spare != nil {
		sparePolicy = spare.Policy()
	}
	ec, err := execConfig(cfg, g, sparePolicy, extra)
	if err != nil {
		res.Err = err
		return res, spare, nil
	}
	s, err := exec.RecycleSession(spare, g, ec)
	if err != nil {
		res.Err = err
		return res, spare, nil
	}
	stats, err := s.Run(cfg.Iterations)
	res.Stats = stats
	if err != nil {
		res.Err = err
		return res, s, ec.Policy
	}
	res.OK = true
	res.Steady = stats[len(stats)-1]
	res.Throughput = res.Steady.Throughput(cfg.Batch)
	res.Plan = planSummary(ec.Policy)
	return res, s, ec.Policy
}

// Caps on a RunConfig's size fields. A run allocates its per-iteration
// statistics up front, so an uncapped iteration count can ask for more
// memory than the host has: a fatal error that no recover catches.
const (
	// MaxBatchCeiling also bounds the exponential search: no max-batch
	// search probes a larger batch.
	MaxBatchCeiling = 4096
	MaxIterations   = 10_000
	MaxDevices      = 64 // the Scaling experiment uses at most 8
)

// Validate reports why cfg cannot run, or nil. It is the one check of a
// run's settings, asking each name's registry: capuchin-serve, the CLIs
// and run itself call it, so an invalid config fails before admission
// or simulation. A config and its CanonicalConfig are valid alike.
func (cfg RunConfig) Validate() error {
	spec, err := models.Get(cfg.Model)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	sys, known := exec.LookupPolicy(string(cfg.System))
	mem, host := cfg.Device.MemoryBytes, cfg.HostMemory
	dev := cfg.Device.Validate()
	alloc := exec.CheckAllocator(cfg.Allocator)
	switch {
	case !known:
		return fmt.Errorf("bench: unknown system %q (known: %v)", cfg.System, exec.PolicyNames())
	case cfg.Batch < 1 || cfg.Batch > MaxBatchCeiling:
		return fmt.Errorf("bench: batch must be >= 1 and <= %d, got %d", MaxBatchCeiling, cfg.Batch)
	case cfg.Iterations < 0 || cfg.Iterations > MaxIterations:
		return fmt.Errorf("bench: iterations must be >= 0 and <= %d, got %d", MaxIterations, cfg.Iterations)
	case cfg.Devices < 0 || cfg.Devices > MaxDevices:
		return fmt.Errorf("bench: devices must be >= 0 and <= %d, got %d", MaxDevices, cfg.Devices)
	case cfg.SchedulePeriod < 0:
		return fmt.Errorf("bench: schedule period must be >= 0, got %d", cfg.SchedulePeriod)
	case mem < memory.MinCapacity || mem > hw.MaxMemory:
		return fmt.Errorf("bench: device memory must be between %d bytes and %d GiB, got %d bytes",
			memory.MinCapacity, hw.MaxMemory/hw.GiB, mem)
	case host < 0 || host > hw.MaxMemory:
		return fmt.Errorf("bench: host memory must be 0 (default) or between 1 byte and %d GiB, got %d bytes",
			hw.MaxMemory/hw.GiB, host)
	case dev != nil:
		return fmt.Errorf("bench: %w", dev)
	case alloc != nil || cfg.Schedule == "":
		return alloc
	case !sys.GraphAgnostic:
		return fmt.Errorf("bench: system %q keys its policy to one graph and cannot follow a dynamic shape schedule", cfg.System)
	case cfg.Devices > 1:
		return fmt.Errorf("bench: %w", ErrDynamicCluster)
	}
	if _, err := models.NewSchedule(cfg.Schedule, spec, cfg.Batch, cfg.ScheduleSeed, cfg.SchedulePeriod); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}

// MaxBatch finds the largest batch size that completes for the
// configuration (cfg.Batch is ignored). Exponential probe then binary
// search; returns 0 when even batch 1 fails. Runner.MaxBatch is the
// cached, concurrent-sweep equivalent.
func MaxBatch(cfg RunConfig) int64 {
	ts := NewTemplates()
	return maxBatch(cfg, func(c RunConfig) Result {
		res, _, _ := run(c, nil, ts)
		return res
	})
}

// maxBatch is the one max-batch search behind MaxBatch and
// Runner.MaxBatch: it probes cfg at the batches maxBatchSearch picks,
// simulating each probe through probe, and counts a probe as fitting
// when it completes. Any failure counts as "does not fit", so a sweep
// is sound only if every failure is an OOM, which checkCells in
// internal/exec's TestRunSkipMatchesTracedSweep and
// TestRunSkipMatchesTracedGoldens checks for the Table 2 sweep and quick
// Table 3. Every probe
// is the same model and mode at another batch, so the caller hands
// probe a template set: the first probe that simulates builds the
// template and the rest instantiate it.
func maxBatch(cfg RunConfig, probe func(RunConfig) Result) int64 {
	return maxBatchSearch(func(b int64) bool {
		c := cfg
		c.Batch = b
		return probe(c).OK
	})
}

// maxBatchSearch is the probe sequence of every max-batch search: batch
// 1, then doubling to the first failure (or the ceiling), then bisection
// between the last fit and that failure. The fit predicate is not
// monotone in batch under Capuchin, so this exact sequence is part of
// every Table 2 answer (TestMaxBatchSearchProbeOrder pins it).
func maxBatchSearch(probe func(int64) bool) int64 {
	if !probe(1) {
		return 0
	}
	lo := int64(1)
	hi := int64(2)
	for hi <= MaxBatchCeiling && probe(hi) {
		lo = hi
		hi *= 2
	}
	if hi > MaxBatchCeiling {
		return lo
	}
	// Invariant: probe(lo) ok, probe(hi) fails.
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
