package exec

import (
	"fmt"
	"slices"
	"strings"

	"capuchin/internal/bufs"
	"capuchin/internal/fault"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/memory"
	"capuchin/internal/obs"
	"capuchin/internal/ops"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// Mode selects the framework execution mode (§2.2).
type Mode int

// Execution modes.
const (
	// GraphMode executes a pre-built, optimized graph with precise
	// reference-count deallocation.
	GraphMode Mode = iota
	// EagerMode executes imperatively: a CPU dispatch stream serializes
	// ahead of kernels and the autograd tape retains every forward
	// activation until the iteration ends.
	EagerMode
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == EagerMode {
		return "eager"
	}
	return "graph"
}

// ParseMode returns the mode a flag or request names: "graph" (also "")
// or "eager", in any case.
func ParseMode(name string) (Mode, error) {
	switch strings.ToLower(name) {
	case "", "graph":
		return GraphMode, nil
	case "eager":
		return EagerMode, nil
	}
	return GraphMode, fmt.Errorf("exec: unknown mode %q (want graph or eager)", name)
}

// pools maps each Config.Allocator name to its device pool; "" is bfc.
// Each returns spare reset to capacity when it is a pool of its kind,
// and a new pool otherwise.
var pools = map[string]func(spare memory.Pool, capacity int64) memory.Pool{
	"":         resetBFC,
	"bfc":      resetBFC,
	"firstfit": resetFirstFit,
}

func resetBFC(spare memory.Pool, capacity int64) memory.Pool {
	a, ok := spare.(*memory.BFC)
	if !ok {
		a = new(memory.BFC)
	}
	a.Reset(capacity)
	return a
}

func resetFirstFit(spare memory.Pool, capacity int64) memory.Pool {
	a, ok := spare.(*memory.FirstFit)
	if !ok {
		a = new(memory.FirstFit)
	}
	a.Reset(capacity)
	return a
}

// CheckAllocator reports an error unless name selects a device pool:
// "bfc" (the default, also "") or "firstfit".
func CheckAllocator(name string) error {
	if _, ok := pools[name]; !ok {
		return fmt.Errorf("exec: unknown allocator %q (want bfc or firstfit)", name)
	}
	return nil
}

// Config configures a Session.
type Config struct {
	Device hw.DeviceSpec
	// HostMemory bounds pinned CPU staging memory (default 256 GiB, the
	// paper testbed's DRAM).
	HostMemory int64
	Mode       Mode
	// Policy is the memory-management policy; nil means NullPolicy.
	Policy Policy
	// Allocator selects "bfc" (default) or "firstfit".
	Allocator string
	// CoupledSwap makes every node wait for all outstanding swap-outs
	// before issuing, reproducing vDNN's layer-wise synchronization
	// (§3.1, Fig. 1). Capuchin's decoupled mode leaves this false and
	// waits only on OOM (§5.3).
	CoupledSwap bool
	// CollectiveRecompute keeps intermediate recomputation targets
	// produced while replaying a lineage, memory permitting (§5.3).
	CollectiveRecompute bool
	// RecordSpans is ignored: a run's stream spans are folded from its
	// event log (trace.Spans).
	//
	// Deprecated: ignored; trace the run with an obs.Collector.
	RecordSpans bool
	// Faults is the deterministic fault-injection plan; the zero value
	// injects nothing and leaves every virtual-time outcome untouched.
	Faults fault.Plan
	// Comm describes pending collective traffic on this replica's host
	// link (set by the cluster scheduler). nil models an isolated device.
	// Transfers overlapping a comm window are degraded by the window's
	// slowdown regardless of CommAware — contention is physics.
	Comm CommModel
	// CommAware additionally lets the executor defer a swap transfer past
	// an all-reduce window when that finishes it earlier than contending
	// (the comm-aware scheduling rule). Off, windows only slow transfers.
	CommAware bool
	// Tracer receives structured observability events and policy decision
	// audit records. nil disables tracing entirely: no event is
	// constructed and the virtual-time outcome is identical.
	Tracer obs.Tracer
}

// Session executes iterations of one training graph.
type Session struct {
	cfg    Config
	g      *graph.Graph
	dev    hw.DeviceSpec
	policy Policy

	pool memory.Pool
	host *memory.HostArena

	compute *sim.Stream
	h2d     *sim.Stream
	d2h     *sim.Stream
	cpu     *sim.Stream // eager dispatch; nil in graph mode

	// pendingFrees holds the indices of tensors whose swap-out is in
	// flight, keyed by completion time. Every entry is pushed with seq 0,
	// so completions tied in time pop in heap-position order.
	pendingFrees sim.Heap[int32]

	// Hot-path session state is interned: every per-tensor table below is
	// a dense slice keyed by tensor.Idx (assigned by the graph reindex),
	// so the steady-state inner loop never hashes a tensor ID string.
	// tlist mirrors g.TensorList() and translates Idx back to the tensor.
	tlist []*tensor.Tensor

	// swapInAt/swapInOn track the completion time of in-flight prefetches
	// and on-demand swap-ins; swapInList holds the active indices so
	// clearing is O(in-flight), not O(tensors). swapInBytes sums the
	// device memory the listed tensors hold: a tensor keeps its
	// allocation while it is listed.
	swapInAt    []sim.Time
	swapInOn    []bool
	swapInList  []int32
	swapInBytes int64

	// refsInit counts scheduled uses per tensor (static per graph): for a
	// parameter, the accesses each iteration adds to its count. refs is
	// the per-iteration working copy, restored by copy() each iteration.
	// lastUse holds the schedule index of each tensor's final read (-1
	// when never read); updateBarrier is the index of the first
	// in-place parameter update. Together they bound which tensors may be
	// degraded from swapping to recomputation: a replay after a parameter
	// update would read modified weights and change the computed values.
	refsInit      []int32
	refs          []int32
	lastUse       []int32
	updateBarrier int
	// retained marks tensors pinned by the eager tape until iteration end
	// (static per graph: the tape retains every forward activation).
	retained []bool

	// lru orders resident tensors by last access for passive eviction
	// (the paper scans the tensor access list from the beginning, §5.2).
	// It is an intrusive doubly-linked list over index arrays: lruPrev and
	// lruNext chain tensor indices, -1 terminates, and inLRU marks
	// membership. No nodes are allocated in steady state.
	lruPrev, lruNext []int32
	lruHead, lruTail int32
	lruLen           int
	inLRU            []bool

	// pinned marks tensors that the currently executing node reads or
	// writes; they must not be chosen as passive-eviction victims.
	// pinStack records pin order so nested scopes (executeNode, recursive
	// replay) unwind by truncating to a saved depth — no per-node slice.
	pinned   []bool
	pinStack []int32

	// Reusable scratch buffers for executeNode's per-input loops and
	// replay's per-depth state; see their use sites for ownership rules.
	scStalls   []sim.Time
	scInflight []bool
	scFPs      []uint64
	scVictims  []*tensor.Tensor
	replayBufs []replayBuf
	regen      []bool
	regenList  []int32

	// algos memoizes op.Algorithms per node position: the device and
	// every input shape are fixed for a session's lifetime, so the
	// candidate list is computed once per node, appended to the one flat
	// algos slice, and found again through algoSpans[n.Pos] (a zero count
	// means not yet computed). scShapes is the input shape list
	// chooseAlgorithm hands op.Algorithms.
	algos     []ops.Algorithm
	algoSpans []algoSpan
	scShapes  []tensor.Shape
	// fpSeeds holds tensor.HashSeed(n.ID) per node position, so deriving
	// an output fingerprint combines only the output index and the input
	// fingerprints instead of re-hashing the node ID every iteration.
	// paramSeeds holds tensor.HashSeed(t.ID) of every parameter, in the
	// order RecycleSession allocates them.
	fpSeeds    []uint64
	paramSeeds []uint64
	// topology is the template of the graph the topology tables
	// (initTopology) were last fully built for, and nil when that graph
	// had none or the build did not finish.
	topology *graph.Template

	// env is the policy-facing view, allocated once per session.
	env Env

	// digest and prevDigest encode the state at the current and the
	// previous iteration boundary of a Run that may skip (digest.go);
	// paramBytes is the device memory the parameters hold, all the pool
	// may hold at a boundary.
	digest, prevDigest []byte
	paramBytes         int64
	// iterEnd is where an obs.Repeater tracer stood just before the last
	// iteration's policy.EndIteration: the end of the records Run
	// repeats.
	iterEnd obs.Cursor

	// actionAnchor is the virtual time at which policy-triggered
	// asynchronous actions start (the current access's effect point).
	actionAnchor sim.Time
	// penalty accumulates stall time subtracted from access timestamps to
	// reconstruct the infinite-memory timeline (§5.2).
	penalty sim.Time

	// inj answers fault-injection queries; disabled (but never nil) when
	// Config.Faults is the zero plan.
	inj *fault.Injector
	// defErr records an invariant violation raised inside a policy-driven
	// Env action, whose bool-returning signature cannot carry it; the
	// executor checks it at the next node boundary and fails the
	// iteration with the structured cause.
	defErr error

	// tr mirrors Config.Tracer; nil means tracing is off.
	tr obs.Tracer

	// gradIDs marks tensors consumed as gradients by ApplyGradient nodes;
	// gradEvents records their production times each iteration for the
	// cluster's all-reduce schedule. Pure bookkeeping: neither perturbs
	// any virtual-time outcome.
	gradIDs    []bool
	gradEvents []GradEvent

	iter      int
	stats     IterStats
	trackCost sim.Time
	startTime sim.Time

	// names caches the names traced events show, per label by tensor Idx
	// or node Pos; see Session.name.
	names [numLabels][]string
}

// algoSpan locates one node's algorithm list in Session.algos.
type algoSpan struct {
	off, n int32
}

// replayBuf is the per-recursion-depth scratch state of a lineage replay.
type replayBuf struct {
	fps []uint64
}

// NewSession prepares a session: builds the allocator, pre-allocates
// persistent tensors (weights live on device for the whole run, §2.1) and
// seeds their fingerprints. It is RecycleSession without a spare.
func NewSession(g *graph.Graph, cfg Config) (*Session, error) {
	return RecycleSession(nil, g, cfg)
}

// RecycleSession prepares a session for g and cfg as NewSession does,
// in spare's storage when spare is non-nil: a session that no one runs
// or inspects any more, typically one that Park released. It returns
// spare refilled, reusing its per-tensor tables, its flat slice of cost
// menus, scratch buffers, host arena and, when cfg selects the same
// allocator kind, its device pool (reset to the new capacity). A
// recycled session behaves exactly like a new one; nothing of spare's
// previous run survives the refill. On error it returns nil, and spare
// may only be recycled again.
func RecycleSession(spare *Session, g *graph.Graph, cfg Config) (*Session, error) {
	if cfg.Device.MemoryBytes <= 0 {
		return nil, fmt.Errorf("exec: device %q has no memory configured", cfg.Device.Name)
	}
	if cfg.HostMemory == 0 {
		cfg.HostMemory = 256 * hw.GiB
	}
	if cfg.Policy == nil {
		cfg.Policy = NullPolicy{}
	}
	if err := CheckAllocator(cfg.Allocator); err != nil {
		return nil, err
	}
	s := spare
	if s == nil {
		s = new(Session)
	}
	old := *s
	host := old.host
	if host == nil {
		host = new(memory.HostArena)
	}
	host.Reset(cfg.HostMemory)
	pool := pools[cfg.Allocator](old.pool, cfg.Device.MemoryBytes)
	g.EnsureIndexed()
	*s = Session{
		cfg:     cfg,
		g:       g,
		dev:     cfg.Device,
		policy:  cfg.Policy,
		pool:    pool,
		host:    host,
		compute: sim.NewStream("compute"),
		h2d:     sim.NewStream("h2d"),
		d2h:     sim.NewStream("d2h"),
		inj:     fault.NewInjector(cfg.Faults),
		tr:      cfg.Tracer,
	}
	s.env = Env{s: s}
	s.initTables(&old)
	if cfg.Mode == EagerMode {
		s.cpu = sim.NewStream("cpu")
	}
	if s.policy.TracksAccesses() {
		s.trackCost = s.dev.TrackAccess
	}

	// Persistent tensors: allocate once, seed fingerprints.
	seeds := s.paramSeeds
	for _, n := range g.Nodes {
		for _, t := range n.Outputs {
			if !t.Persistent {
				continue
			}
			a, err := pool.Alloc(t.Bytes())
			if err != nil {
				return nil, fmt.Errorf("exec: model parameters do not fit on device: %w", err)
			}
			t.Alloc = a
			s.paramBytes += a.Size
			t.Fingerprint, seeds = seeds[0], seeds[1:]
			if err := t.TransitionTo(tensor.In); err != nil {
				return nil, err
			}
			if s.tr != nil {
				s.memEvent(labelAlloc, "persistent", t, t.Bytes(), 0)
			}
		}
	}
	return s, nil
}

// Park releases everything the session holds besides the storage
// RecycleSession refills: its tracer, fault injector and streams (with
// any recorded spans). It keeps the session's policy, but only as spare
// storage: Policy hands it to Config.UsePolicy, whose BuildContext.Spare
// lets a policy of the same kind build the next cell's policy in it. A
// parked session must not be run or inspected again; it is only a spare
// for RecycleSession, and pins no more than its tables, its graph, its
// pools and its policy's buffers while it waits.
func (s *Session) Park() {
	s.cfg.Tracer, s.cfg.Comm = nil, nil
	s.tr, s.inj = nil, nil
	s.compute, s.h2d, s.d2h, s.cpu = nil, nil, nil, nil
	s.defErr = nil
}

// initTables sizes the interned per-tensor tables. The topology tables
// (initTopology) are a pure function of the graph's topology and the
// mode, so a session whose old tables were built for another instance of
// the same template in the same mode keeps them; every other table and
// scratch buffer reuses old's backing array when it is large enough (old
// is the zero Session for a new session), cleared.
func (s *Session) initTables(old *Session) {
	s.tlist = s.g.TensorList()
	nt, nn := len(s.tlist), len(s.g.Nodes)
	if tmpl := s.g.Template(); tmpl != nil && old.topology == tmpl && old.cfg.Mode == s.cfg.Mode {
		s.refsInit, s.lastUse, s.updateBarrier = old.refsInit, old.lastUse, old.updateBarrier
		s.retained, s.gradIDs = old.retained, old.gradIDs
		s.fpSeeds, s.paramSeeds = old.fpSeeds, old.paramSeeds
		s.topology = tmpl
	} else {
		s.initTopology(old)
	}
	s.refs = bufs.Resized(old.refs, nt)
	s.swapInAt = bufs.Resized(old.swapInAt, nt)
	s.swapInOn = bufs.Resized(old.swapInOn, nt)
	s.lruPrev = bufs.Resized(old.lruPrev, nt)
	s.lruNext = bufs.Resized(old.lruNext, nt)
	s.inLRU = bufs.Resized(old.inLRU, nt)
	s.pinned = bufs.Resized(old.pinned, nt)
	s.regen = bufs.Resized(old.regen, nt)
	// Most ops offer one algorithm and convolutions two or three: no zoo
	// model averages more than 1.35 per node, so the menus of a new
	// session fit one allocation.
	s.algos = slices.Grow(old.algos[:0], nn+nn/2)
	s.algoSpans = bufs.Resized(old.algoSpans, nn)
	s.lruHead, s.lruTail = -1, -1
	s.swapInList, s.pinStack, s.regenList = old.swapInList[:0], old.pinStack[:0], old.regenList[:0]
	s.scStalls, s.scInflight, s.scFPs = old.scStalls[:0], old.scInflight[:0], old.scFPs[:0]
	s.scVictims, s.scShapes, s.gradEvents = old.scVictims[:0], old.scShapes[:0], old.gradEvents[:0]
	s.replayBufs = old.replayBufs
	s.digest, s.prevDigest = old.digest[:0], old.prevDigest[:0]
	for l, tab := range old.names {
		s.names[l] = tab[:0] // name resizes and clears it on first use
	}
}

// initTopology computes the static schedule analysis in old's storage:
// reference counts, final-read positions, the update barrier, eager-tape
// retention, the gradient-tensor marks and the node and parameter
// fingerprint seeds. None of it depends on a shape, so it runs once per
// session, not once per iteration, and a refill of the same template
// keeps it (initTables).
func (s *Session) initTopology(old *Session) {
	nt, nn := len(s.tlist), len(s.g.Nodes)
	s.refsInit = bufs.Resized(old.refsInit, nt)
	s.lastUse = bufs.Resized(old.lastUse, nt)
	s.retained = bufs.Resized(old.retained, nt)
	s.gradIDs = bufs.Resized(old.gradIDs, nt)
	s.fpSeeds = bufs.Resized(old.fpSeeds, nn)
	s.paramSeeds = old.paramSeeds[:0]
	s.updateBarrier = nn
	for i, n := range s.g.Nodes {
		s.fpSeeds[n.Pos] = tensor.HashSeed(n.ID)
		if _, isUpdate := n.Op.(ops.ApplyGradient); isUpdate {
			s.updateBarrier = min(s.updateBarrier, i)
			if len(n.Inputs) > 1 {
				s.gradIDs[n.Inputs[1].Idx] = true
			}
		}
		for _, in := range n.Inputs {
			s.refsInit[in.Idx]++
			if !in.Persistent {
				s.lastUse[in.Idx] = int32(i)
			}
		}
		for _, out := range n.Outputs {
			if out.Persistent {
				s.paramSeeds = append(s.paramSeeds, tensor.HashSeed(out.ID))
			}
		}
	}
	// Eager tape retention: imperative execution holds every forward
	// activation until backward completes (§2.2, §6.4.1).
	if s.cfg.Mode == EagerMode {
		for _, n := range s.g.Nodes {
			if n.Phase != graph.Forward {
				continue
			}
			for _, out := range n.Outputs {
				if !out.Persistent {
					s.retained[out.Idx] = true
				}
			}
		}
	}
	s.topology = s.g.Template()
}

// Policy returns the session's policy: the one it runs, or, once the
// session is parked, the spare storage Park kept.
func (s *Session) Policy() Policy { return s.policy }

// Graph returns the session's graph.
func (s *Session) Graph() *graph.Graph { return s.g }

// Pool exposes allocator statistics.
func (s *Session) Pool() memory.Pool { return s.pool }

// Streams returns the compute, H2D and D2H streams for span inspection.
func (s *Session) Streams() (compute, h2d, d2h *sim.Stream) {
	return s.compute, s.h2d, s.d2h
}

// now is the current virtual time on the compute stream.
func (s *Session) now() sim.Time { return s.compute.AvailableAt() }

// touchLRU moves t to the most-recently-used end of the eviction order.
func (s *Session) touchLRU(t *tensor.Tensor) {
	i := t.Idx
	if s.inLRU[i] {
		if s.lruTail == i {
			return
		}
		// Unlink from the middle (i is not the tail here).
		p, n := s.lruPrev[i], s.lruNext[i]
		if p >= 0 {
			s.lruNext[p] = n
		} else {
			s.lruHead = n
		}
		s.lruPrev[n] = p
	} else {
		s.inLRU[i] = true
		s.lruLen++
	}
	s.lruPrev[i] = s.lruTail
	s.lruNext[i] = -1
	if s.lruTail >= 0 {
		s.lruNext[s.lruTail] = i
	} else {
		s.lruHead = i
	}
	s.lruTail = i
}

// dropLRU removes t from the eviction order.
func (s *Session) dropLRU(t *tensor.Tensor) {
	i := t.Idx
	if !s.inLRU[i] {
		return
	}
	p, n := s.lruPrev[i], s.lruNext[i]
	if p >= 0 {
		s.lruNext[p] = n
	} else {
		s.lruHead = n
	}
	if n >= 0 {
		s.lruPrev[n] = p
	} else {
		s.lruTail = p
	}
	s.inLRU[i] = false
	s.lruPrev[i], s.lruNext[i] = 0, 0
	s.lruLen--
}

// resetLRU empties the eviction order in O(members).
func (s *Session) resetLRU() {
	for i := s.lruHead; i >= 0; {
		n := s.lruNext[i]
		s.inLRU[i] = false
		s.lruPrev[i], s.lruNext[i] = 0, 0
		i = n
	}
	s.lruHead, s.lruTail = -1, -1
	s.lruLen = 0
}

// pinBase reports the current pin-stack depth; unpinTo restores it.
func (s *Session) pinBase() int { return len(s.pinStack) }

// pinOne marks one tensor untouchable by passive eviction.
func (s *Session) pinOne(t *tensor.Tensor) {
	if !s.pinned[t.Idx] {
		s.pinned[t.Idx] = true
		s.pinStack = append(s.pinStack, t.Idx)
	}
}

// pinAll pins every tensor in ts.
func (s *Session) pinAll(ts []*tensor.Tensor) {
	for _, t := range ts {
		s.pinOne(t)
	}
}

// unpinTo unwinds the pin stack to a depth saved by pinBase, clearing
// exactly the pins taken since.
func (s *Session) unpinTo(base int) {
	for i := len(s.pinStack) - 1; i >= base; i-- {
		s.pinned[s.pinStack[i]] = false
	}
	s.pinStack = s.pinStack[:base]
}

// swapInSet records the completion time of an in-flight swap-in.
func (s *Session) swapInSet(t *tensor.Tensor, at sim.Time) {
	i := t.Idx
	if !s.swapInOn[i] {
		s.swapInOn[i] = true
		s.swapInList = append(s.swapInList, i)
		s.swapInBytes += allocBytes(t)
	}
	s.swapInAt[i] = at
}

// swapInClear drops index i from the in-flight swap-in set.
func (s *Session) swapInClear(i int32) {
	if !s.swapInOn[i] {
		return
	}
	s.swapInOn[i] = false
	s.swapInBytes -= allocBytes(s.tlist[i])
	for k, v := range s.swapInList {
		if v == i {
			s.swapInList = append(s.swapInList[:k], s.swapInList[k+1:]...)
			break
		}
	}
}

// clearSwapIns empties the in-flight swap-in set in O(in-flight).
func (s *Session) clearSwapIns() {
	for _, i := range s.swapInList {
		s.swapInOn[i] = false
		s.swapInBytes -= allocBytes(s.tlist[i])
	}
	s.swapInList = s.swapInList[:0]
}

// allocBytes is the device memory t holds.
func allocBytes(t *tensor.Tensor) int64 {
	if t.Alloc == nil {
		return 0
	}
	return t.Alloc.Size
}

// The three helpers below are the only places the executor couples a
// residency transition to the eviction order. Every allocation that makes
// a tensor resident, every swap-in landing and every device-memory
// release goes through one of them, so the LRU cannot silently diverge
// from the allocator (CheckResidencyInvariant pins the coupling in the
// property tests).

// becomeResident marks a tensor that just received device memory as
// resident and enters it into the eviction order. ctx labels the
// invariant error on an illegal transition.
func (s *Session) becomeResident(t *tensor.Tensor, ctx string) error {
	if err := t.TransitionTo(tensor.In); err != nil {
		return invariant(ctx, t.ID, err)
	}
	s.touchLRU(t)
	return nil
}

// landSwapIn completes an in-flight or on-demand swap-in: the tensor
// becomes resident, its host copy is released and it re-enters the
// eviction order.
func (s *Session) landSwapIn(t *tensor.Tensor, ctx string) error {
	if err := t.TransitionTo(tensor.In); err != nil {
		return invariant(ctx, t.ID, err)
	}
	if s.host.HoldsIdx(int(t.Idx)) {
		if err := s.host.ReleaseIdx(int(t.Idx), t.ID); err != nil {
			return invariant(ctx, t.ID, err)
		}
	}
	s.touchLRU(t)
	return nil
}

// freeDevice releases a tensor's device memory, removes it from the
// eviction order and transitions it to next, in that order, so the LRU
// never holds a tensor without a live allocation.
func (s *Session) freeDevice(t *tensor.Tensor, next tensor.Status, ctx string) error {
	if err := s.pool.Free(t.Alloc); err != nil {
		return invariant(ctx, t.ID, err)
	}
	t.Alloc = nil
	s.dropLRU(t)
	if err := t.TransitionTo(next); err != nil {
		return invariant(ctx, t.ID, err)
	}
	return nil
}

// CheckResidencyInvariant verifies that the passive-eviction order is
// consistent with the allocator: the LRU list and its position index
// mirror each other exactly, every LRU member is a non-persistent tensor
// that still owns device memory in an evictable or mid-swap-out state,
// and every non-persistent resident tensor is present in the order. The
// property and chaos tests call it at iteration boundaries; it returns
// nil in a healthy session.
func (s *Session) CheckResidencyInvariant() error {
	count := 0
	prev := int32(-1)
	for i := s.lruHead; i >= 0; i = s.lruNext[i] {
		if count >= s.lruLen+1 {
			return fmt.Errorf("exec: eviction order longer than its accounted length %d (cycle?)", s.lruLen)
		}
		if int(i) >= len(s.tlist) {
			return fmt.Errorf("exec: eviction order links index %d beyond the tensor table", i)
		}
		t := s.tlist[i]
		if !s.inLRU[i] {
			return fmt.Errorf("exec: %s linked into the eviction order but not marked a member", t.ID)
		}
		if s.lruPrev[i] != prev {
			return fmt.Errorf("exec: lru index out of sync for %s", t.ID)
		}
		if t.Persistent {
			return fmt.Errorf("exec: persistent tensor %s in the eviction order", t.ID)
		}
		if t.Status != tensor.In && t.Status != tensor.SwappingOut {
			return fmt.Errorf("exec: %s in eviction order with status %v", t.ID, t.Status)
		}
		if t.Alloc == nil {
			return fmt.Errorf("exec: %s in eviction order without device memory", t.ID)
		}
		prev = i
		count++
	}
	if prev != s.lruTail {
		return fmt.Errorf("exec: eviction order tail out of sync")
	}
	if count != s.lruLen {
		return fmt.Errorf("exec: lru list has %d entries but index has %d", count, s.lruLen)
	}
	flagged := 0
	for i := range s.inLRU {
		if s.inLRU[i] {
			flagged++
		}
	}
	if flagged != count {
		return fmt.Errorf("exec: lru membership flags (%d) disagree with the chain (%d)", flagged, count)
	}
	for _, n := range s.g.Nodes {
		for _, t := range n.Outputs {
			if t.Persistent || t.Status != tensor.In || t.Alloc == nil {
				continue
			}
			if !s.inLRU[t.Idx] {
				return fmt.Errorf("exec: resident tensor %s missing from the eviction order", t.ID)
			}
		}
	}
	return nil
}
