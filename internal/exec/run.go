package exec

import (
	"errors"
	"fmt"

	"capuchin/internal/fault"
	"capuchin/internal/graph"
	"capuchin/internal/memory"
	"capuchin/internal/obs"
	"capuchin/internal/ops"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// paramsSeed starts the per-iteration parameter fingerprint chain.
var paramsSeed = tensor.HashSeed("params")

// maxReplayDepth bounds recomputation recursion; real lineages are bounded
// by forward-graph depth.
const maxReplayDepth = 10000

// maxSpuriousAllocRetries bounds consecutive injected allocation failures
// absorbed per allocate call, so even a 100% injection rate cannot
// livelock the recovery loop.
const maxSpuriousAllocRetries = 4

// RunIteration executes one training iteration and returns its statistics.
// On out-of-memory failure the returned error matches ErrIterationOOM.
func (s *Session) RunIteration() (IterStats, error) {
	iterationsSimulated.Add(1)
	env := &s.env
	s.stats = IterStats{Iter: s.iter}
	s.startTime = s.now()
	s.penalty = 0
	s.defErr = nil
	s.gradEvents = s.gradEvents[:0]

	// Per-iteration reference counts: one per scheduled use, restored from
	// the static per-graph analysis computed once in initTables (final-read
	// positions, the update barrier and eager-tape retention are static and
	// need no per-iteration reset).
	copy(s.refs, s.refsInit)

	s.policy.BeginIteration(s.iter, env)
	var runErr error
	for _, n := range s.g.Nodes {
		if err := s.executeNode(n, env); err != nil {
			runErr = fmt.Errorf("node %s: %w", n.ID, err)
			break
		}
	}
	if err := s.endIteration(env); err != nil && runErr == nil {
		runErr = err
	}
	if rep, ok := s.tr.(obs.Repeater); ok {
		s.iterEnd = rep.Mark()
	}
	s.policy.EndIteration(s.iter, env)

	st := s.stats
	st.Duration = s.now() - s.startTime
	st.PeakBytes = s.pool.Peak()
	s.iter++
	return st, runErr
}

// Run executes n iterations, returning per-iteration stats. It stops at
// the first failure, and the last entry is then the iteration that
// failed: its partial stats, or only its number when the boundary before
// it failed. When its policy digests its state (see StateDigester) and
// nothing but a Repeater traces it, Run stops simulating at the first
// iteration boundary whose state equals the previous boundary's: every
// remaining iteration would repeat the last one, so repeat fills them
// in, and the tracer repeats the last iteration's records up to its
// policy.EndIteration, whose records (Capuchin's plan, when the
// measured iteration is the one repeated) the repeats do not make. The
// stats, the records and the session Run leaves are those of simulating
// all n.
func (s *Session) Run(n int) ([]IterStats, error) {
	stats := make([]IterStats, 0, n)
	dg, skippable := s.digester()
	rep, _ := s.tr.(obs.Repeater)
	var mark obs.Cursor
	for i := 0; i < n; i++ {
		if skippable {
			repeated, err := s.boundaryRepeats(dg, i == 0)
			if err != nil {
				return append(stats, IterStats{Iter: s.iter}), err
			}
			if repeated {
				m := n - len(stats)
				stats = s.repeat(stats, n)
				if rep != nil {
					rep.Repeat(mark, s.iterEnd, stats[len(stats)-1].Duration, m)
				}
				return stats, nil
			}
			if rep != nil {
				mark = rep.Mark()
			}
		}
		st, err := s.RunIteration()
		stats = append(stats, st)
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// spikeKernel applies an injected kernel latency spike to dur, recording
// the extra time it cost.
func (s *Session) spikeKernel(nodeID string, dur sim.Time) sim.Time {
	f := s.inj.KernelSpike(nodeID)
	if f <= 1 {
		return dur
	}
	extra := sim.Time(float64(dur) * (f - 1))
	s.stats.KernelSpikes++
	s.stats.SpikeTime += extra
	if s.tr != nil {
		s.laneInstant("fault", "kernel-spike", "compute", nodeID, s.now())
	}
	return dur + extra
}

// executeNode runs one scheduled node: residency, allocation, algorithm
// choice, kernel execution, access reporting and deallocation.
func (s *Session) executeNode(n *graph.Node, env *Env) error {
	if _, isVar := n.Op.(ops.Variable); isVar {
		return nil // parameters are pre-resident; declaration costs nothing
	}
	s.stats.Nodes++

	pinBase := s.pinBase()
	s.pinAll(n.Inputs)
	s.pinAll(n.Outputs)
	defer s.unpinTo(pinBase)

	// vDNN-style coupled execution: wait for all outstanding swap-outs
	// before issuing the next layer (§3.1, Fig. 1).
	if s.cfg.CoupledSwap {
		if err := s.drainSwapOuts(); err != nil {
			return err
		}
	}

	issueAt := s.now()
	deps := issueAt
	// Eager mode: the CPU dispatch stream serializes ahead of the kernel.
	if s.cpu != nil {
		cpuStart, cpuEnd := s.cpu.Run(0, s.dev.EagerDispatch)
		if s.tr != nil {
			s.tr.Emit(obs.Event{
				Kind: obs.KindSpan, Cat: "dispatch", Name: s.nodeName(labelDispatch, n),
				Lane: "cpu", Start: cpuStart, End: cpuEnd, Iter: s.iter, Node: n.ID,
			})
		}
		deps = sim.MaxTime(deps, cpuEnd)
	}
	dispatchReady := deps

	// Materialize inputs, collecting per-input stall information for the
	// policy's feedback loop. The collection buffers live on the session
	// and are reused across nodes (executeNode never nests).
	stalls := s.scStalls[:0]
	inflight := s.scInflight[:0]
	for _, in := range n.Inputs {
		ready, wasInFlight, err := s.materialize(in, env)
		if err != nil {
			return err
		}
		var st sim.Time
		if ready > issueAt {
			st = ready - issueAt
		}
		stalls = append(stalls, st)
		inflight = append(inflight, wasInFlight)
		deps = sim.MaxTime(deps, ready)
	}
	s.scStalls, s.scInflight = stalls, inflight

	// Allocate outputs.
	for _, out := range n.Outputs {
		if out.Persistent {
			continue
		}
		a, err := s.allocate(out.Bytes(), env)
		if err != nil {
			return err
		}
		out.Alloc = a
		if err := s.becomeResident(out, "produce"); err != nil {
			return err
		}
		if s.tr != nil {
			s.memEvent(labelAlloc, "produce", out, out.Bytes(), s.now())
		}
	}

	// Algorithm choice: fastest whose workspace fits right now, mirroring
	// cuDNN's workspace-limited algorithm selection (§2.1). Memory
	// pressure silently degrades convolutions to slower algorithms — the
	// VGG16 effect of §6.3.2.
	algo, wsAlloc, err := s.chooseAlgorithm(n)
	if err != nil {
		return err
	}

	dur := s.spikeKernel(n.ID, algo.Duration)
	if s.trackCost > 0 {
		dur += sim.Time(len(n.Inputs)+len(n.Outputs)) * s.trackCost
	}
	// Stalls inserted during materialization/allocation already advanced
	// the compute stream (and were charged to penalty there); only the
	// remaining wait on transfer dependencies is exposed here.
	preRun := sim.MaxTime(s.now(), dispatchReady)
	start, end := s.compute.Run(deps, dur)
	s.exposedStall(preRun, start)
	if s.tr != nil {
		s.tr.Emit(obs.Event{
			Kind: obs.KindSpan, Cat: "kernel", Name: n.ID, Lane: "compute",
			Start: start, End: end, Iter: s.iter, Node: n.ID,
		})
	}
	if wsAlloc != nil {
		if err := s.pool.Free(wsAlloc); err != nil {
			return invariant("free-workspace", "", err)
		}
		if s.tr != nil {
			s.memEvent(labelFree, "workspace", nil, wsAlloc.Size, s.now())
		}
	}

	// Produce fingerprints: the correctness oracle.
	for _, in := range n.Inputs {
		if in.Fingerprint == 0 {
			return invariant("fingerprint", in.ID, fmt.Errorf("input consumed with empty fingerprint (residency bug)"))
		}
	}
	s.fingerprint(n)
	// Gradient schedule for the cluster's all-reduce planner: record when
	// each gradient tensor materializes. Bookkeeping only.
	for _, out := range n.Outputs {
		if s.gradIDs[out.Idx] {
			s.gradEvents = append(s.gradEvents, GradEvent{At: end, Bytes: out.Bytes()})
		}
	}

	// Report accesses: reads at op start, produces at op end. Policy
	// actions triggered by these accesses anchor at op end — the delayed
	// asynchronous operation of §5.4.
	s.actionAnchor = end
	for i, in := range n.Inputs {
		s.reportAccess(in, Read, start, stalls[i], inflight[i], n, env)
	}
	for _, out := range n.Outputs {
		s.reportAccess(out, Produce, end, 0, false, n, env)
	}

	// Reference counting: release dead tensors at op end.
	for _, in := range n.Inputs {
		if in.Persistent {
			continue
		}
		s.refs[in.Idx]--
		if s.refs[in.Idx] == 0 && !s.retained[in.Idx] {
			if err := s.release(in, end, env); err != nil {
				return err
			}
		}
	}
	for _, out := range n.Outputs {
		if !out.Persistent && s.refs[out.Idx] == 0 && !s.retained[out.Idx] {
			if err := s.release(out, end, env); err != nil {
				return err
			}
		}
	}
	// Policy actions run inside bool-returning Env methods; an invariant
	// violation raised there is parked in defErr and fails the iteration
	// at this node boundary.
	if s.defErr != nil {
		err := s.defErr
		s.defErr = nil
		return err
	}
	return nil
}

// fingerprint applies node n's content rule: each output's fingerprint
// derives from the node's seed, the output index and the input
// fingerprints, and an ApplyGradient folds the gradient into its weight's
// chain in place. It records the loss fingerprint when n produces the
// loss. executeNode and replayIteration share it. It reads only the
// graph, fpSeeds, scFPs and stats, all that Reference's session holds.
func (s *Session) fingerprint(n *graph.Node) {
	inFPs := s.scFPs[:0]
	for _, in := range n.Inputs {
		inFPs = append(inFPs, in.Fingerprint)
	}
	s.scFPs = inFPs
	seed := s.fpSeeds[n.Pos]
	for i, out := range n.Outputs {
		out.Fingerprint = tensor.FingerprintFrom(seed, i, inFPs)
	}
	if _, isUpdate := n.Op.(ops.ApplyGradient); isUpdate {
		// In-place variable update: fold the gradient into the weight's
		// fingerprint chain.
		v := n.Inputs[0]
		fold := [2]uint64{v.Fingerprint, n.Inputs[1].Fingerprint}
		v.Fingerprint = tensor.FingerprintFrom(seed, -1, fold[:])
	}
	if len(n.Outputs) > 0 && n.Outputs[0] == s.g.Loss {
		s.stats.LossFingerprint = n.Outputs[0].Fingerprint
	}
}

// paramFingerprint hashes the parameter fingerprints in declaration
// order: the iteration's ParamFingerprint.
func (s *Session) paramFingerprint() uint64 {
	h := paramsSeed
	for _, n := range s.g.Nodes {
		for _, t := range n.Outputs {
			if t.Persistent {
				h = tensor.HashCombine(h, t.Fingerprint)
			}
		}
	}
	return h
}

// chooseAlgorithm picks the fastest algorithm whose workspace can be
// allocated, falling back to the terminal zero-workspace variant. The
// candidate list is a pure function of the device and the node's input
// shapes, both fixed for the session's lifetime, so it is computed once
// per node position and served from the session's algos afterwards.
func (s *Session) chooseAlgorithm(n *graph.Node) (ops.Algorithm, *memory.Allocation, error) {
	span := &s.algoSpans[n.Pos]
	if span.n == 0 {
		inShapes := s.scShapes[:0]
		for _, in := range n.Inputs {
			inShapes = append(inShapes, in.Shape)
		}
		s.scShapes = inShapes
		// The op appends to an empty slice over algos' spare capacity;
		// copying its result onto the end of algos is then a copy in
		// place, and an op that returns a slice of its own still works.
		off := len(s.algos)
		menu := n.Op.Algorithms(s.dev, inShapes, s.algos[off:])
		s.algos = append(s.algos, menu...)
		*span = algoSpan{off: int32(off), n: int32(len(menu))}
	}
	algos := s.algos[span.off : span.off+span.n]
	for _, a := range algos {
		if a.Workspace == 0 {
			return a, nil, nil
		}
		if err := s.applyDueFrees(s.now()); err != nil {
			return ops.Algorithm{}, nil, err
		}
		if ws := s.pool.TryAlloc(a.Workspace); ws != nil {
			if s.tr != nil {
				s.memEvent(labelAlloc, "workspace", nil, a.Workspace, s.now())
			}
			return a, ws, nil
		}
	}
	return algos[len(algos)-1], nil, nil
}

// reportAccess updates access bookkeeping and notifies the policy.
func (s *Session) reportAccess(t *tensor.Tensor, kind AccessKind, at sim.Time, stall sim.Time, inflight bool, n *graph.Node, env *Env) {
	s.stats.Accesses++
	count := t.Touch(at - s.penalty)
	s.touchLRU(t)
	s.policy.OnAccess(Access{
		Tensor:   t,
		Kind:     kind,
		Count:    count,
		At:       at - s.penalty,
		Raw:      at,
		Stall:    stall,
		InFlight: inflight,
		Node:     n,
	}, env)
}

// release frees a dead tensor and reports the deallocation to the policy.
func (s *Session) release(t *tensor.Tensor, at sim.Time, env *Env) error {
	switch t.Status {
	case tensor.In:
		if err := s.freeDevice(t, tensor.Freed, "release"); err != nil {
			return err
		}
	case tensor.Out:
		if s.host.HoldsIdx(int(t.Idx)) {
			if err := s.host.ReleaseIdx(int(t.Idx), t.ID); err != nil {
				return invariant("release", t.ID, err)
			}
		}
		s.dropLRU(t)
		if err := t.TransitionTo(tensor.Freed); err != nil {
			return invariant("release", t.ID, err)
		}
	case tensor.Recompute:
		s.dropLRU(t)
		if err := t.TransitionTo(tensor.Freed); err != nil {
			return invariant("release", t.ID, err)
		}
	default:
		// SwappingOut/SwappingIn: an in-flight transfer owns the buffer;
		// the pending completion or the iteration barrier cleans up.
		return nil
	}
	// Every Dealloc the policy sees has its free/dead instant, whatever
	// the tensor's status, so the access tape is a fold over the log.
	if s.tr != nil {
		s.memEvent(labelFree, "dead", t, t.Bytes(), at)
	}
	s.stats.Accesses++
	s.policy.OnAccess(Access{
		Tensor: t,
		Kind:   Dealloc,
		Count:  t.AccessCount,
		At:     at - s.penalty,
		Raw:    at,
	}, env)
	return nil
}

// materialize ensures a scheduled input is readable on device, returning
// when it becomes ready and whether it was mid-swap-in.
func (s *Session) materialize(t *tensor.Tensor, env *Env) (sim.Time, bool, error) {
	ready, inflight, handled, err := s.ensureOnDevice(t, env)
	if err != nil || handled {
		return ready, inflight, err
	}
	// Recompute path (status Recompute, or Freed via lineage).
	ready, err = s.recompute(t, env)
	return ready, false, err
}

// ensureOnDevice handles the residency states that do not require
// recomputation. handled=false means the tensor needs lineage replay.
func (s *Session) ensureOnDevice(t *tensor.Tensor, env *Env) (ready sim.Time, inflight bool, handled bool, err error) {
	now := s.now()
	switch t.Status {
	case tensor.In, tensor.SwappingOut:
		// Readable on device; a tensor mid-swap-out stays readable and
		// its host copy covers the later re-access (§5.3).
		return now, false, true, nil
	case tensor.SwappingIn:
		var done sim.Time
		if s.swapInOn[t.Idx] {
			done = s.swapInAt[t.Idx]
			s.swapInClear(t.Idx)
		}
		if err := s.landSwapIn(t, "finish-swapin"); err != nil {
			return 0, false, true, err
		}
		return sim.MaxTime(done, now), done > now, true, nil
	case tensor.Out:
		// Access failure: on-demand swap-in (§5.2 passive mode).
		a, aerr := s.allocate(t.Bytes(), env)
		if aerr != nil {
			return 0, false, true, aerr
		}
		t.Alloc = a
		if err := t.TransitionTo(tensor.SwappingIn); err != nil {
			return 0, false, true, invariant("ondemand-in", t.ID, err)
		}
		if s.tr != nil {
			s.memEvent(labelAlloc, "ondemand", t, t.Bytes(), s.now())
			s.decide(obs.Decision{
				Tensor: t.ID, Action: "ondemand-swapin", Bytes: t.Bytes(),
				Reason: "accessed while swapped out (no prefetch landed)",
			})
		}
		l, terr := s.transfer(fault.H2D, labelOnDemand, t, s.now(), s.mandatoryAttempts())
		if terr != nil {
			return s.abandonSwapIn(t, terr)
		}
		if err := s.landSwapIn(t, "ondemand-in"); err != nil {
			return 0, false, true, err
		}
		s.stats.OnDemandInCount++
		s.stats.OnDemandInBytes += t.Bytes()
		return l.end, true, true, nil
	default:
		return 0, false, false, nil
	}
}

// abandonSwapIn degrades a permanently failed on-demand swap-in to
// recomputation: the device buffer and host copy are dropped and the
// tensor re-enters via lineage replay (handled=false). Tensors without a
// replayable producer surface the transfer failure instead.
func (s *Session) abandonSwapIn(t *tensor.Tensor, terr error) (sim.Time, bool, bool, error) {
	if err := s.freeDevice(t, tensor.Out, "abandon-swapin"); err != nil {
		return 0, false, true, err
	}
	if !s.fallbackSafe(t) {
		return 0, false, true, fmt.Errorf("on-demand swap-in of %s: %w", t.ID, terr)
	}
	if err := s.host.ReleaseIdx(int(t.Idx), t.ID); err != nil {
		return 0, false, true, invariant("abandon-swapin", t.ID, err)
	}
	if err := t.TransitionTo(tensor.Recompute); err != nil {
		return 0, false, true, invariant("abandon-swapin", t.ID, err)
	}
	s.stats.SwapFallbacks++
	if s.tr != nil {
		s.memEvent(labelFree, "fallback", t, t.Bytes(), s.now())
		s.decide(obs.Decision{
			Tensor: t.ID, Action: "fallback-recompute", Bytes: t.Bytes(),
			Reason: "on-demand swap-in exhausted its DMA retry budget; degrading to lineage replay",
		})
	}
	return 0, false, false, nil
}

// recompute regenerates t by replaying its lineage. The collective
// recomputation rule (§5.3) is applied progressively as the replay
// proceeds: each regenerated intermediate is kept while memory allows and
// released otherwise, bounding the replay's own footprint.
func (s *Session) recompute(t *tensor.Tensor, env *Env) (sim.Time, error) {
	end, err := s.replay(t, env, 0)
	// Clear the regenerated-set scratch for the next replay; the list
	// bounds the sweep to tensors actually touched.
	for _, i := range s.regenList {
		s.regen[i] = false
	}
	s.regenList = s.regenList[:0]
	return end, err
}

// markRegen adds t to the regenerated set of the replay in progress.
func (s *Session) markRegen(t *tensor.Tensor) {
	if !s.regen[t.Idx] {
		s.regen[t.Idx] = true
		s.regenList = append(s.regenList, t.Idx)
	}
}

// replay recursively re-executes the producer of t. Replay accesses are
// not reported to the policy and do not advance access counts: guided
// execution keys its decisions on the access counts observed during
// measured execution (§4.2).
func (s *Session) replay(t *tensor.Tensor, env *Env, depth int) (sim.Time, error) {
	if depth > maxReplayDepth {
		return 0, fmt.Errorf("recompute of %s exceeds depth %d (lineage cycle?)", t.ID, maxReplayDepth)
	}
	if t.Persistent {
		return 0, fmt.Errorf("recompute requested for persistent tensor %s", t.ID)
	}
	node := s.g.Producer(t)
	if node == nil {
		return 0, fmt.Errorf("recompute of %s: no producer in lineage", t.ID)
	}
	if len(node.Outputs) != 1 {
		return 0, fmt.Errorf("recompute of %s: multi-output producer %s", t.ID, node.ID)
	}

	pinBase := s.pinBase()
	s.pinAll(node.Inputs)
	s.pinOne(t)
	defer s.unpinTo(pinBase)

	deps := s.now()
	for _, in := range node.Inputs {
		ready, _, handled, err := s.ensureOnDevice(in, env)
		if err != nil {
			return 0, err
		}
		if !handled {
			ready, err = s.replay(in, env, depth+1)
			if err != nil {
				return 0, err
			}
		}
		deps = sim.MaxTime(deps, ready)
	}

	a, err := s.allocate(t.Bytes(), env)
	if err != nil {
		return 0, err
	}
	t.Alloc = a
	if err := s.becomeResident(t, "replay"); err != nil {
		return 0, err
	}
	if s.tr != nil {
		s.memEvent(labelAlloc, "recompute", t, t.Bytes(), s.now())
	}

	// Per-depth fingerprint scratch: inner replays at depth+1 run before
	// this depth reads its buffer, so each depth owns its own.
	for len(s.replayBufs) <= depth {
		s.replayBufs = append(s.replayBufs, replayBuf{})
	}
	inFPs := s.replayBufs[depth].fps[:0]
	for _, in := range node.Inputs {
		if in.Fingerprint == 0 {
			return 0, invariant("replay", in.ID, fmt.Errorf("recompute of %s reads input with empty fingerprint", t.ID))
		}
		inFPs = append(inFPs, in.Fingerprint)
	}
	s.replayBufs[depth].fps = inFPs
	algo, wsAlloc, err := s.chooseAlgorithm(node)
	if err != nil {
		return 0, err
	}
	dur := s.spikeKernel(node.ID, algo.Duration)
	rStart, end := s.compute.Run(deps, dur)
	if s.tr != nil {
		s.tr.Emit(obs.Event{
			Kind: obs.KindSpan, Cat: "recompute", Name: s.nodeName(labelRecompute, node),
			Lane: "compute", Start: rStart, End: end, Iter: s.iter,
			Node: node.ID, Tensor: t.ID,
		})
	}
	if wsAlloc != nil {
		if err := s.pool.Free(wsAlloc); err != nil {
			return 0, invariant("free-workspace", "", err)
		}
		if s.tr != nil {
			s.memEvent(labelFree, "workspace", nil, wsAlloc.Size, s.now())
		}
	}
	t.Fingerprint = tensor.FingerprintFrom(s.fpSeeds[node.Pos], 0, inFPs)
	s.stats.RecomputeCount++
	s.stats.RecomputeTime += dur
	s.stats.RecomputeBytes += t.Bytes()
	s.markRegen(t)

	// Progressive collective-recomputation retention (§5.3): now that t
	// exists, each input regenerated along the way is kept only if it
	// will be used again and memory is plentiful; otherwise its memory is
	// released immediately so deep replays cost O(1) extra space.
	// Plentiful means free memory stays above 1/recomputeHeadroomDiv of
	// the device after keeping the input.
	const recomputeHeadroomDiv = 20
	for _, in := range node.Inputs {
		if !s.regen[in.Idx] || in == t {
			continue
		}
		if in.Status != tensor.In || in.Alloc == nil {
			s.regen[in.Idx] = false // claimed by a passive eviction
			continue
		}
		keep := s.cfg.CollectiveRecompute && s.refs[in.Idx] > 0 &&
			s.pool.FreeBytes() >= s.dev.MemoryBytes/recomputeHeadroomDiv+in.Alloc.Size
		if keep {
			continue
		}
		next := tensor.Freed
		if s.refs[in.Idx] > 0 {
			next = tensor.Recompute
		}
		if err := s.freeDevice(in, next, "replay-release"); err != nil {
			return 0, err
		}
		s.regen[in.Idx] = false
		if s.tr != nil {
			s.memEvent(labelFree, "replay-release", in, in.Bytes(), s.now())
		}
	}
	return end, nil
}

// allocate reserves device memory, in order of escalation: apply due
// in-flight frees, stall on the earliest outstanding swap-out (decoupled
// OOM synchronization, §5.3), then ask the policy for synchronous passive
// evictions (§5.2). Injected spurious allocation failures are absorbed by
// retrying after a virtual-time backoff; real failures that later succeed
// are counted as OOM recoveries. Fails with ErrIterationOOM when nothing
// helps.
func (s *Session) allocate(size int64, env *Env) (*memory.Allocation, error) {
	oomSeen := false
	spurious := 0
	evicts := 0
	for {
		if err := s.applyDueFrees(s.now()); err != nil {
			return nil, err
		}
		if spurious < maxSpuriousAllocRetries && s.inj.AllocFails("device") {
			// Transient cudaMalloc hiccup: back off in virtual time and
			// retry the same request.
			s.stats.AllocFaults++
			spurious++
			if s.tr != nil {
				s.laneInstant("fault", "alloc-fault", "compute", "spurious device allocation failure", s.now())
			}
			if delay := sim.Backoff(s.inj.Plan().Backoff(), spurious-1); delay > 0 {
				s.stallTo(s.now()+delay, "alloc-backoff")
			}
			continue
		}
		a := s.pool.TryAlloc(size)
		if a != nil {
			if oomSeen || spurious > 0 {
				s.stats.OOMRecoveries++
				s.stats.RecoveryEvicts += evicts
				if s.tr != nil {
					s.laneInstant("oom", "oom-recovered", "compute",
						fmt.Sprintf("%s allocated after %d evictions", obs.FmtBytes(size), evicts), s.now())
				}
			}
			return a, nil
		}
		if !oomSeen && s.tr != nil {
			s.tr.Emit(obs.Event{
				Kind: obs.KindInstant, Cat: "oom", Name: "oom", Lane: "compute",
				Start: s.now(), End: s.now(), Iter: s.iter, Bytes: size,
				Used: s.pool.Used(), Free: s.pool.FreeBytes(),
				LargestFree: s.pool.LargestFree(), HostUsed: s.host.Used(),
				Detail: "allocation failed: " + obs.FmtBytes(size),
			})
		}
		oomSeen = true
		if at, _, ok := s.pendingFrees.Peek(); ok {
			s.stallTo(at, "oom-wait-swapout")
			if err := s.applyDueFrees(s.now()); err != nil {
				return nil, err
			}
			continue
		}
		if h, isHandler := s.policy.(OOMHandler); isHandler {
			// Eviction-hook path: the policy acts directly through the Env
			// (releases for recomputation, asynchronous swap-outs) instead
			// of returning a passive victim list.
			freeBefore := s.pool.FreeBytes()
			progress, hok := h.HandleOOM(size, env)
			if s.defErr != nil {
				derr := s.defErr
				s.defErr = nil
				return nil, derr
			}
			if !hok {
				return nil, fmt.Errorf("allocating %d bytes: %w: %w", size, memory.NewOOMError(s.pool, size), ErrIterationOOM)
			}
			if progress {
				// A handler that claims progress without freeing anything
				// now or queueing an asynchronous release would livelock
				// the loop; demote the claim.
				if s.pendingFrees.Len() == 0 && s.pool.FreeBytes() == freeBefore {
					progress = false
				}
			}
			if progress {
				evicts++
				continue
			}
			progressed, cerr := s.completeEarliestSwapIn()
			if cerr != nil {
				return nil, cerr
			}
			if progressed {
				continue
			}
			return nil, fmt.Errorf("allocating %d bytes with no evictable tensors: %w: %w", size, memory.NewOOMError(s.pool, size), ErrIterationOOM)
		}
		victims, ok := s.policy.OnOOM(size, env)
		if !ok {
			return nil, fmt.Errorf("allocating %d bytes: %w: %w", size, memory.NewOOMError(s.pool, size), ErrIterationOOM)
		}
		if s.tr != nil {
			s.decide(obs.Decision{
				Action: "oom-scan", Bytes: size, Candidates: len(victims),
				Reason: "synchronous passive-eviction victim scan (§5.2)",
			})
		}
		if s.defErr != nil {
			err := s.defErr
			s.defErr = nil
			return nil, err
		}
		evicted := false
		for _, v := range victims {
			if v.Status != tensor.In || v.Persistent || s.pinned[v.Idx] {
				continue
			}
			if everr := s.passiveEvict(v); everr != nil {
				if errors.Is(everr, ErrInvariant) {
					return nil, everr
				}
				// Host-side failure (arena pressure or an injected fault):
				// under injection, degrade the victim to recomputation so
				// passive mode still makes progress.
				if s.inj.Enabled() {
					ok, ferr := s.recomputeFallback(v)
					if ferr != nil {
						return nil, ferr
					}
					if ok {
						evicted = true
						evicts++
					}
					continue
				}
				return nil, fmt.Errorf("passive eviction of %s: %w: %w", v.ID, everr, ErrIterationOOM)
			}
			evicted = true
			evicts++
		}
		if !evicted {
			// Last resort: wait for an in-flight prefetch to land so its
			// buffer becomes evictable on the next round.
			progressed, cerr := s.completeEarliestSwapIn()
			if cerr != nil {
				return nil, cerr
			}
			if progressed {
				continue
			}
			return nil, fmt.Errorf("allocating %d bytes with no evictable tensors: %w: %w", size, memory.NewOOMError(s.pool, size), ErrIterationOOM)
		}
	}
}

// fallbackSafe reports whether t may be degraded from swapping to
// recomputation: it needs a replayable producer and every remaining use
// must precede the first in-place parameter update, so the replay cannot
// observe modified weights (recompute-after-update would produce
// different values than the preserved host copy). Gradients are refused
// too: multi-output backward nodes produce them, and replay cannot
// regenerate those, so gradients stay swap-only here as in the planner.
func (s *Session) fallbackSafe(t *tensor.Tensor) bool {
	return !t.Persistent && !t.Gradient && s.g.Producer(t) != nil && int(s.lastUse[t.Idx]) < s.updateBarrier
}

// recomputeFallback abandons the swap path for a resident victim and
// releases its device memory for lineage recomputation instead — the
// swap→recompute degradation used when the host arena or the D2H link is
// unusable. Reports false when v has no replayable lineage.
func (s *Session) recomputeFallback(v *tensor.Tensor) (bool, error) {
	if v.Status != tensor.In || v.Alloc == nil || !s.fallbackSafe(v) {
		return false, nil
	}
	if err := s.freeDevice(v, tensor.Recompute, "recompute-fallback"); err != nil {
		return false, err
	}
	s.stats.SwapFallbacks++
	if s.tr != nil {
		s.memEvent(labelFree, "fallback", v, v.Bytes(), s.now())
		s.decide(obs.Decision{
			Tensor: v.ID, Action: "fallback-recompute", Bytes: v.Bytes(),
			Reason: "host arena or D2H link unusable; releasing victim for lineage replay",
		})
	}
	return true, nil
}

// completeEarliestSwapIn stalls until the earliest in-flight swap-in
// finishes and marks its tensor resident (and therefore evictable).
// Returns false when no swap-in is in flight.
func (s *Session) completeEarliestSwapIn() (bool, error) {
	best := int32(-1)
	var bestAt sim.Time
	for _, i := range s.swapInList {
		at := s.swapInAt[i]
		// Tie-break on tensor ID, matching the historical map scan's
		// deterministic order.
		if best < 0 || at < bestAt || (at == bestAt && s.tlist[i].ID < s.tlist[best].ID) {
			best, bestAt = i, at
		}
	}
	if best < 0 {
		return false, nil
	}
	t := s.tlist[best]
	s.swapInClear(best)
	if t.Status != tensor.SwappingIn {
		return true, nil // state moved on; let the caller retry
	}
	s.stallTo(bestAt, "oom-wait-swapin")
	if err := s.landSwapIn(t, "complete-swapin"); err != nil {
		return true, err
	}
	return true, nil
}

// passiveEvict synchronously copies a tensor to host and frees its device
// memory, stalling the compute stream for the copy (§5.2). Injected D2H
// faults are retried with backoff; a permanent failure leaves the tensor
// resident with the host reservation rolled back.
func (s *Session) passiveEvict(v *tensor.Tensor) error {
	if err := s.reserveHost(v, "compute", s.now()); err != nil {
		return err
	}
	l, terr := s.transfer(fault.D2H, labelPassive, v, s.now(), s.mandatoryAttempts())
	if terr != nil {
		if err := s.host.ReleaseIdx(int(v.Idx), v.ID); err != nil {
			return invariant("passive-evict", v.ID, err)
		}
		return terr
	}
	s.stallTo(l.end, "passive-evict")
	if err := s.freeDevice(v, tensor.SwappingOut, "passive-evict"); err != nil {
		return err
	}
	if err := v.TransitionTo(tensor.Out); err != nil {
		return invariant("passive-evict", v.ID, err)
	}
	s.stats.PassiveEvicts++
	s.stats.PassiveBytes += v.Bytes()
	if s.tr != nil {
		s.memEvent(labelFree, "evict", v, v.Bytes(), s.now())
		s.decide(obs.Decision{
			Tensor: v.ID, Action: "passive-evict", Bytes: v.Bytes(),
			Reason: "LRU victim copied to host synchronously under OOM",
		})
	}
	if h := s.host.Peak(); h > s.stats.HostPeak {
		s.stats.HostPeak = h
	}
	return nil
}

// applyDueFrees releases device memory whose swap-out completed by now.
// finishSwapOut never pushes a pending free, so the drain pops exactly
// the completions that were due on entry.
func (s *Session) applyDueFrees(now sim.Time) error {
	for {
		at, i, ok := s.pendingFrees.Peek()
		if !ok || at > now {
			return nil
		}
		s.pendingFrees.Pop()
		if err := s.finishSwapOut(i); err != nil {
			return err
		}
	}
}

// drainSwapOuts waits for every outstanding swap-out (coupled mode).
func (s *Session) drainSwapOuts() error {
	for {
		at, i, ok := s.pendingFrees.Pop()
		if !ok {
			return nil
		}
		s.stallTo(at, "coupled-drain")
		if err := s.finishSwapOut(i); err != nil {
			return err
		}
	}
}

// finishSwapOut completes the swap-out of tensor i: free device memory,
// mark Out.
func (s *Session) finishSwapOut(i int32) error {
	t := s.tlist[i]
	if t.Status != tensor.SwappingOut {
		return nil
	}
	if err := s.freeDevice(t, tensor.Out, "finish-swapout"); err != nil {
		return err
	}
	if s.tr != nil {
		s.memEvent(labelFree, "swapout-complete", t, t.Bytes(), s.now())
	}
	return nil
}

// endIteration waits for outstanding transfers, snapshots the parameter
// fingerprint and resets per-iteration tensor state. The barrier is a
// device-wide sync: the copy streams advance to it with the compute
// stream, so every iteration boundary starts the three from one clock.
func (s *Session) endIteration(env *Env) error {
	barrier := sim.MaxTime(s.now(), sim.MaxTime(s.d2h.AvailableAt(), s.h2d.AvailableAt()))
	s.compute.AdvanceTo(barrier)
	s.h2d.AdvanceTo(barrier)
	s.d2h.AdvanceTo(barrier)
	var firstErr error
	for {
		_, i, ok := s.pendingFrees.Pop()
		if !ok {
			break
		}
		if err := s.finishSwapOut(i); err != nil && firstErr == nil {
			firstErr = err
		}
	}

	s.stats.ParamFingerprint = s.paramFingerprint()

	// Before the frees: a listed swap-in still holds its allocation.
	s.clearSwapIns()
	for _, n := range s.g.Nodes {
		for _, t := range n.Outputs {
			if t.Persistent {
				continue
			}
			if t.Alloc != nil {
				if err := s.pool.Free(t.Alloc); err != nil && firstErr == nil {
					firstErr = invariant("end-iteration", t.ID, err)
				}
				t.Alloc = nil
				if s.tr != nil {
					s.memEvent(labelFree, "end-iter", t, t.Bytes(), s.now())
				}
			}
			if s.host.HoldsIdx(int(t.Idx)) {
				if err := s.host.ReleaseIdx(int(t.Idx), t.ID); err != nil && firstErr == nil {
					firstErr = invariant("end-iteration", t.ID, err)
				}
			}
			t.ResetIteration()
		}
	}
	s.resetLRU()
	s.unpinTo(0)
	if firstErr == nil && s.defErr != nil {
		firstErr = s.defErr
		s.defErr = nil
	}
	return firstErr
}
