package core

import (
	"fmt"
	"sort"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// Options configures Capuchin; the zero value is the paper's full system.
type Options struct {
	// SwapOnly disables recomputation (the configuration of Fig. 8a).
	SwapOnly bool
	// RecomputeOnly disables swapping decisions in the plan (Fig. 8b);
	// passive-mode on-demand swapping remains as the safety net.
	RecomputeOnly bool
	// DisableFeedback turns off the runtime in-trigger adjustment (the
	// "FA" ablation of §6.2).
	DisableFeedback bool
}

// measuredIters is how many iterations a measured (or re-measured) pass
// runs in passive mode before the plan is made.
const measuredIters = 1

// Capuchin is the paper's memory manager as an exec.Policy: iteration 0
// runs in passive measured mode (on-demand eviction only) while the Tensor
// Access Tracker records the dynamic access pattern; the Policy Maker then
// derives the hybrid swap/recompute plan that guided execution applies and
// refines from feedback (§4.2).
type Capuchin struct {
	opts Options

	// tk exists only during a measured iteration; it is then &tkBuf.
	tk   *tracker
	plan *plan
	// tkBuf and scratch are the tracker and the Policy Maker's storage,
	// kept so each measured pass and plan build reuses the previous
	// one's.
	tkBuf   tracker
	scratch planScratch
	// planGraph is the graph whose Idx space the plan indexes; a nil or
	// different graph makes the next iteration rebind the plan.
	planGraph *graph.Graph
	// tensors is the current graph's TensorList: the live tensor of each
	// Idx, for guided execution (including plans loaded with LoadPlan).
	tensors []*tensor.Tensor

	// measureLeft counts the measured (passive) iterations remaining
	// before the next plan build; measuring latches it for the duration
	// of one iteration. Re-measurement after an invalidation re-arms the
	// countdown, so "measured mode" is a state the policy can re-enter
	// mid-training rather than a property of the iteration number.
	measureLeft int
	measuring   bool

	// sig is the active shape signature ("" until BeginSignature; static
	// runs never set one) and cache holds the plans of recently seen
	// signatures so recurring buckets skip re-measurement.
	sig   string
	cache *planCache

	// Dynamic-regime counters for reporting and audits.
	plansBuilt    int
	cacheHits     int
	invalidations int

	// pendingPrefetch queues in-triggers (by Idx) that fired while
	// device memory was too tight to prefetch into; they retry at
	// subsequent accesses. Prefetching into the peak-memory region would
	// force evictions of its own (§4.4), so issuing waits for headroom
	// instead. The queue pops by advancing pendingHead so the backing
	// array is reused; it rewinds to the front whenever it drains.
	// pending marks the queued tensors by Idx.
	pendingPrefetch []int32
	pendingHead     int
	pending         []bool

	// stalledAdjusts counts feedback-driven in-trigger moves (observable
	// for tests and the Fig. 8a breakdown).
	stalledAdjusts int
}

var _ exec.Policy = (*Capuchin)(nil)
var _ exec.Replanner = (*Capuchin)(nil)

// New creates a Capuchin policy.
func New(opts Options) *Capuchin { return recycle(nil, opts) }

// recycle returns a Capuchin policy with opts, as New does, in spare's
// storage when spare is non-nil: a policy no one runs or inspects any
// more, typically the one a parked exec.Session kept. Every field is
// reset, the options and counters included; only backing arrays
// survive. Those are the tracker's and the Policy Maker's scratch, the
// prefetch queue and the arrays of spare's current plan, which the next
// plan build refills. Plans spare cached for other shape signatures are
// dropped. A recycled policy behaves exactly like a new one.
func recycle(spare *Capuchin, opts Options) *Capuchin {
	if opts.SwapOnly && opts.RecomputeOnly {
		panic("core: SwapOnly and RecomputeOnly are mutually exclusive")
	}
	c := spare
	if c == nil {
		c = &Capuchin{cache: newPlanCache(planCacheSize)}
	}
	old := *c
	*c = Capuchin{
		opts:            opts,
		measureLeft:     measuredIters,
		cache:           old.cache,
		tkBuf:           old.tkBuf,
		scratch:         old.scratch,
		pendingPrefetch: old.pendingPrefetch[:0],
		pending:         old.pending,
	}
	c.cache.clear()
	clear(c.pending)
	if old.plan != nil {
		// The plan took the tracker's sequence when it was built.
		c.tkBuf.seq = old.plan.seq
		c.scratch.spare = old.plan
	}
	return c
}

// Name implements exec.Policy.
func (c *Capuchin) Name() string {
	switch {
	case c.opts.SwapOnly:
		return "capuchin-swap"
	case c.opts.RecomputeOnly:
		return "capuchin-recompute"
	default:
		return "capuchin"
	}
}

// TracksAccesses implements exec.Policy: Capuchin's runtime tracking costs
// a small per-access overhead (§6.3.2).
func (c *Capuchin) TracksAccesses() bool { return true }

// BeginIteration implements exec.Policy: it sizes the per-Idx state for
// the iteration's graph and binds the plan to it.
func (c *Capuchin) BeginIteration(iter int, env *exec.Env) {
	g := env.Graph()
	c.tensors = g.TensorList()
	if len(c.pending) < len(c.tensors) {
		c.pending = make([]bool, len(c.tensors))
	}
	c.measuring = c.plan == nil && c.measureLeft > 0
	if c.measuring && c.tk == nil {
		c.tkBuf.reset(len(c.tensors), len(g.Nodes))
		c.tk = &c.tkBuf
	}
	if c.plan != nil && g != c.planGraph {
		c.plan.bind(g)
		c.planGraph = g
	}
}

// OnAccess implements exec.Policy.
func (c *Capuchin) OnAccess(acc exec.Access, env *exec.Env) {
	if c.measuring {
		c.tk.observe(acc)
		return
	}
	p := c.plan
	if p == nil || acc.Kind == exec.Dealloc {
		return
	}
	t := acc.Tensor

	// Feedback-driven adjustment: the back-access found its tensor still
	// in flight, so next iteration's in-trigger moves earlier by 5% of
	// the swap time (§4.4).
	if sp := p.swapOf(t.Idx); sp != nil && acc.Count == sp.backCount {
		if acc.InFlight && acc.Stall > 0 && !c.opts.DisableFeedback {
			c.advanceTrigger(sp, env)
		}
	}

	// Retry queued prefetches, then any in-triggers bound to this access.
	c.drainPrefetches(env)
	pos := p.access(t.Idx, acc.Count)
	if pos < 0 {
		return
	}
	for i := p.trigHead[pos]; i >= 0; i = p.swaps[i].nextTrig {
		c.prefetch(i, env)
	}

	// Eviction bound to this access.
	switch p.evict[pos] {
	case actionSwap:
		if env.FaultsEnabled() {
			// Graceful degradation: when the planned swap-out cannot
			// proceed (injected DMA abort, host pressure) or the link is
			// inside a degradation window, fall back to releasing the
			// tensor for recomputation instead of keeping it resident
			// and risking passive-mode stalls later.
			if env.LinkDegraded() || !env.SwapOutAsync(t) {
				env.FallbackToRecompute(t)
			}
		} else {
			env.SwapOutAsync(t)
		}
	case actionRecompute:
		env.ReleaseForRecompute(t)
	}
}

// canPrefetch applies the memory guards: enough free memory beyond a
// reserve of 1/prefetchReserveDiv of the device (prefetching into tighter
// memory would trigger evictions), and bounded device memory held by
// in-flight transfers (those buffers cannot be evicted until they land,
// so letting them accumulate fragments the address space at large batch
// sizes).
func (c *Capuchin) canPrefetch(size int64, env *exec.Env) bool {
	const prefetchReserveDiv = 32
	inflightCap := env.DeviceMemory() / 4
	return env.InflightSwapInBytes()+size <= inflightCap &&
		env.FreeBytes() >= size+env.DeviceMemory()/prefetchReserveDiv
}

// liveOut returns tensor i of the current graph when it is swapped out,
// else nil. Idx past the graph's (IDs a loaded plan names that the graph
// lacks) match nothing.
func (c *Capuchin) liveOut(i int32) *tensor.Tensor {
	if int(i) >= len(c.tensors) {
		return nil
	}
	if t := c.tensors[i]; t.Status == tensor.Out {
		return t
	}
	return nil
}

// prefetch issues tensor i's swap-in when memory allows, otherwise
// queues it.
func (c *Capuchin) prefetch(i int32, env *exec.Env) {
	t := c.liveOut(i)
	if t == nil || c.pending[i] {
		return
	}
	if c.canPrefetch(c.plan.sizes[i], env) && env.SwapInAsync(t) {
		return
	}
	c.pending[i] = true
	c.pendingPrefetch = append(c.pendingPrefetch, i)
	if env.Tracing() {
		env.Decide(obs.Decision{
			Tensor: c.plan.names[i], Action: "prefetch-deferred", Bytes: c.plan.sizes[i],
			Reason: "in-trigger fired inside the peak-memory region; queued until headroom returns",
		})
	}
}

// drainPrefetches retries queued prefetches in FIFO order, stopping at the
// first that still does not fit (preserving the back-access order the
// trigger schedule established).
func (c *Capuchin) drainPrefetches(env *exec.Env) {
	for c.pendingHead < len(c.pendingPrefetch) {
		i := c.pendingPrefetch[c.pendingHead]
		t := c.liveOut(i)
		if t == nil {
			// Already brought in (on-demand at its back-access).
			c.pendingHead++
			c.pending[i] = false
			continue
		}
		if !c.canPrefetch(c.plan.sizes[i], env) || !env.SwapInAsync(t) {
			return
		}
		c.pendingHead++
		c.pending[i] = false
	}
	c.pendingPrefetch = c.pendingPrefetch[:0]
	c.pendingHead = 0
}

// resetPrefetches drops every queued prefetch.
func (c *Capuchin) resetPrefetches() {
	for _, i := range c.pendingPrefetch[c.pendingHead:] {
		c.pending[i] = false
	}
	c.pendingPrefetch = c.pendingPrefetch[:0]
	c.pendingHead = 0
}

// advanceTrigger moves a swap plan's in-trigger earlier on the measured
// timeline by feedbackAdvance of its swap duration (§4.4).
func (c *Capuchin) advanceTrigger(sp *swapPlan, env *exec.Env) {
	const feedbackAdvance = 0.05
	seq := c.plan.seq
	var current sim.Time
	if sp.triggerIdx >= 0 {
		current = seq[sp.triggerIdx].at
	} else {
		current = sp.backAt
	}
	target := current - sim.Time(float64(sp.swapInDur)*feedbackAdvance)
	idx := sort.Search(len(seq), func(i int) bool { return seq[i].at > target }) - 1
	for idx >= 0 && (seq[idx].idx == sp.idx || seq[idx].at <= sp.evictAt) {
		idx--
	}
	if idx < 0 || (sp.triggerIdx >= 0 && idx >= sp.triggerIdx) {
		return // cannot move earlier
	}
	c.plan.unregisterTrigger(sp)
	sp.triggerIdx = idx
	c.plan.registerTrigger(sp)
	c.stalledAdjusts++
	if env.Tracing() {
		env.Decide(obs.Decision{
			Tensor: c.plan.names[sp.idx], Action: "advance-trigger", Bytes: sp.size,
			Reason: "back-access stalled on the in-flight prefetch; in-trigger moved earlier (§4.4)",
		})
	}
}

// OnOOM implements exec.Policy: passive mode's on-demand eviction scan
// (§5.2) runs in both measured and guided execution as the safety net.
func (c *Capuchin) OnOOM(need int64, env *exec.Env) ([]*tensor.Tensor, bool) {
	return env.LRUResidents(need), true
}

// EndIteration implements exec.Policy: after the final measured iteration
// the Policy Maker builds the plan.
func (c *Capuchin) EndIteration(iter int, env *exec.Env) {
	c.resetPrefetches()
	if !c.measuring {
		return
	}
	c.measuring = false
	c.measureLeft--
	if c.measureLeft > 0 {
		// Earlier measured iterations only warm the passive-mode state
		// (host buffers, allocator layout); the plan derives from the
		// final measured iteration's trace, so drop the partial one —
		// access counts restart every iteration and mixing two traces
		// would corrupt the {tensor, count} keys.
		c.tk = nil
		return
	}
	c.tk.finish()
	pl := planner{
		tk:       c.tk,
		opts:     c.opts,
		capacity: env.DeviceMemory(),
		params:   paramResident(env),
		swapOut:  env.SwapOutDuration,
		swapIn:   env.SwapInDuration,
		scratch:  c.scratch,
	}
	if env.Tracing() {
		pl.decide = env.Decide
	}
	c.plan = pl.build()
	c.scratch = pl.scratch
	c.planGraph = env.Graph()
	// The plan owns the sequence now: a later measured pass (a new shape
	// signature's) must not overwrite a plan the cache may keep.
	c.tkBuf.seq = nil
	c.tk = nil
	c.plansBuilt++
	if c.sig != "" {
		c.cache.put(c.sig, c.plan)
	}
}

// paramResident estimates persistent memory as what is resident at the
// iteration boundary (only parameters survive the end-of-iteration reset).
func paramResident(env *exec.Env) int64 {
	return env.UsedBytes()
}

// PlanSummary describes the decisions Capuchin made, for reporting.
type PlanSummary struct {
	Planned        bool
	RequiredBytes  int64
	PeakUsage      int64
	SwapTensors    int
	SwapBytes      int64
	RecomputeCount int
	RecomputeBytes int64
	Adjustments    int
	// Dynamic-regime counters: total plan builds, cached-plan reuses on
	// signature switches, staleness invalidations, and signatures with a
	// cached plan. All zero on static runs.
	PlanBuilds    int
	CacheHits     int
	Invalidations int
	Signatures    int
}

// Summary reports the current plan.
func (c *Capuchin) Summary() PlanSummary {
	s := PlanSummary{
		Adjustments:   c.stalledAdjusts,
		PlanBuilds:    c.plansBuilt,
		CacheHits:     c.cacheHits,
		Invalidations: c.invalidations,
		Signatures:    c.cache.len(),
	}
	if c.plan == nil {
		return s
	}
	s.Planned = true
	s.RequiredBytes = c.plan.required
	s.PeakUsage = c.plan.peakUsage
	s.SwapTensors = c.plan.numSwap
	s.SwapBytes = c.plan.coveredSwap
	s.RecomputeCount = c.plan.numRecompute
	s.RecomputeBytes = c.plan.coveredRecomp
	return s
}

// String implements fmt.Stringer.
func (s PlanSummary) String() string {
	if !s.Planned {
		return "capuchin: no plan yet"
	}
	return fmt.Sprintf("capuchin plan: need %dMB of %dMB peak; swap %d tensors (%dMB), recompute %d (%dMB), %d feedback adjustments",
		s.RequiredBytes>>20, s.PeakUsage>>20, s.SwapTensors, s.SwapBytes>>20,
		s.RecomputeCount, s.RecomputeBytes>>20, s.Adjustments)
}
