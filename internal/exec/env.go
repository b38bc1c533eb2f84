package exec

import (
	"errors"

	"capuchin/internal/fault"
	"capuchin/internal/graph"
	"capuchin/internal/memory"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// Env is the controlled interface policies use to inspect the executor and
// trigger memory-management actions. All asynchronous actions anchor at the
// current access's effect time, matching the paper's delayed-operation
// design: a swap triggered by a tensor access waits until the GPU stream
// reaches that point (§5.4).
type Env struct {
	s *Session
}

// Graph exposes the graph for static policies (vDNN, checkpointing).
// Capuchin deliberately never calls this: it is computation-graph agnostic.
func (e *Env) Graph() *graph.Graph { return e.s.g }

// DeviceMemory reports the allocator capacity.
func (e *Env) DeviceMemory() int64 { return e.s.pool.Capacity() }

// FreeBytes reports currently free device memory.
func (e *Env) FreeBytes() int64 { return e.s.pool.FreeBytes() }

// UsedBytes reports currently used device memory.
func (e *Env) UsedBytes() int64 { return e.s.pool.Used() }

// SwapOutDuration reports the device-to-host transfer time for a size,
// the quantity in the paper's Eq. 1, comm-adjusted at the action anchor.
func (e *Env) SwapOutDuration(bytes int64) sim.Time { return e.s.transferEstimate(fault.D2H, bytes) }

// SwapInDuration reports the host-to-device transfer time for a size,
// comm-adjusted like SwapOutDuration.
func (e *Env) SwapInDuration(bytes int64) sim.Time { return e.s.transferEstimate(fault.H2D, bytes) }

// Tracing reports whether an observability tracer is attached. Policies
// gate decision construction on it so untraced runs pay nothing.
func (e *Env) Tracing() bool { return e.s.tr != nil }

// Decide records a policy decision in the audit log; a no-op without a
// tracer. The executor stamps the policy name, virtual time and iteration
// when the caller leaves them zero.
func (e *Env) Decide(d obs.Decision) { e.s.decide(d) }

// FaultsEnabled reports whether the session runs under an active
// fault-injection plan. Policies use it to gate degradation heuristics so
// fault-free runs stay bit-identical to the unfaulted executor.
func (e *Env) FaultsEnabled() bool { return e.s.inj.Enabled() }

// LinkDegraded reports whether the PCIe link is inside an injected
// bandwidth-degradation window right now. Always false without faults.
func (e *Env) LinkDegraded() bool { return e.s.inj.LinkDegraded(e.s.actionAnchor) }

// SwapOutAsync proactively evicts a resident tensor: the D2H copy is
// enqueued at the action anchor and the device memory becomes free when
// the copy completes (decoupled computation and swapping, §5.3). The call
// is a no-op if the tensor is not currently resident or host memory is
// exhausted. Proactive swaps fail fast under injected faults — returning
// false instead of spending the retry budget — so the policy can fall
// back to recomputation.
func (e *Env) SwapOutAsync(t *tensor.Tensor) bool {
	s := e.s
	if t.Status != tensor.In || t.Persistent {
		return false
	}
	if err := s.reserveHost(t, "d2h", s.actionAnchor); err != nil {
		if s.tr != nil {
			reason := "pinned host arena exhausted"
			if errors.Is(err, fault.ErrInjected) {
				reason = "injected pinned-host reservation fault"
			}
			s.decide(obs.Decision{Tensor: t.ID, Action: "swap-out-failed", Bytes: t.Bytes(), Reason: reason})
		}
		return false
	}
	l, err := s.transfer(fault.D2H, labelSwapOut, t, s.actionAnchor, 1)
	if err != nil {
		// Aborted DMA: the host reservation is rolled back and the tensor
		// stays resident.
		if s.tr != nil {
			s.decide(obs.Decision{
				Tensor: t.ID, Action: "swap-out-failed", Bytes: t.Bytes(),
				Reason: "injected DMA abort; proactive swaps fail fast",
			})
		}
		if err := s.host.ReleaseIdx(int(t.Idx), t.ID); err != nil {
			s.defErr = invariant("swapout-async", t.ID, err)
		}
		return false
	}
	if err := t.TransitionTo(tensor.SwappingOut); err != nil {
		s.defErr = invariant("swapout-async", t.ID, err)
		return false
	}
	s.pendingFrees.Push(l.end, 0, t.Idx)
	s.stats.SwapOutCount++
	s.stats.SwapOutBytes += t.Bytes()
	if h := s.host.Peak(); h > s.stats.HostPeak {
		s.stats.HostPeak = h
	}
	if s.tr != nil {
		d := obs.Decision{
			Tensor: t.ID, Action: "swap-out", Bytes: t.Bytes(), At: s.actionAnchor,
			Reason: "proactive eviction overlapped with compute (§5.3)",
		}
		l.foldComm(&d)
		s.decide(d)
	}
	return true
}

// SwapInAsync prefetches a swapped-out tensor (an in-trigger firing). The
// device buffer is allocated immediately; if that allocation fails the
// prefetch is skipped and the tensor will be fetched on demand at its
// back-access. Returns whether the prefetch was issued.
func (e *Env) SwapInAsync(t *tensor.Tensor) bool {
	s := e.s
	if t.Status != tensor.Out {
		return false
	}
	if err := s.applyDueFrees(s.now()); err != nil {
		s.defErr = err
		return false
	}
	if s.inj.AllocFails("prefetch") {
		// Spurious allocation failure: skip the prefetch; the back-access
		// fetches on demand.
		s.stats.AllocFaults++
		if s.tr != nil {
			s.laneInstant("fault", "alloc-fault", "h2d", t.ID, s.actionAnchor)
			s.decide(obs.Decision{
				Tensor: t.ID, Action: "prefetch-failed", Bytes: t.Bytes(),
				Reason: "injected allocation fault; back-access will fetch on demand",
			})
		}
		return false
	}
	a := s.pool.TryAlloc(t.Bytes())
	if a == nil {
		if s.tr != nil {
			s.decide(obs.Decision{
				Tensor: t.ID, Action: "prefetch-failed", Bytes: t.Bytes(),
				Reason: "no device memory for the prefetch buffer; back-access will fetch on demand",
			})
		}
		return false
	}
	l, err := s.transfer(fault.H2D, labelSwapIn, t, s.actionAnchor, 1)
	if err != nil {
		// Aborted prefetch DMA: put the buffer back; the back-access
		// fetches on demand or recomputes.
		if s.tr != nil {
			s.decide(obs.Decision{
				Tensor: t.ID, Action: "prefetch-failed", Bytes: t.Bytes(),
				Reason: "injected DMA abort; back-access will fetch on demand or recompute",
			})
		}
		memory.MustFree(s.pool, a) // freeing the just-made allocation cannot fail
		return false
	}
	t.Alloc = a
	if err := t.TransitionTo(tensor.SwappingIn); err != nil {
		s.defErr = invariant("swapin-async", t.ID, err)
		return false
	}
	s.swapInSet(t, l.end)
	s.stats.PrefetchCount++
	s.stats.PrefetchBytes += t.Bytes()
	if s.tr != nil {
		d := obs.Decision{
			Tensor: t.ID, Action: "prefetch", Bytes: t.Bytes(), At: s.actionAnchor,
			Reason: "in-trigger prefetch ahead of the back-access (§5.4)",
		}
		l.foldComm(&d)
		s.decide(d)
	}
	return true
}

// InflightSwapInBytes reports the device memory held by in-flight
// swap-ins; these buffers are not evictable until the transfers land.
func (e *Env) InflightSwapInBytes() int64 { return e.s.swapInBytes }

// ReleaseForRecompute frees a resident tensor's memory without a host
// copy; a later access regenerates it from lineage. No-op unless resident.
func (e *Env) ReleaseForRecompute(t *tensor.Tensor) bool {
	s := e.s
	if t.Status != tensor.In || t.Persistent {
		return false
	}
	if err := s.freeDevice(t, tensor.Recompute, "release-for-recompute"); err != nil {
		s.defErr = err
		return false
	}
	if s.tr != nil {
		s.memEvent(labelFree, "recompute-drop", t, t.Bytes(), s.now())
		s.decide(obs.Decision{
			Tensor: t.ID, Action: "release-recompute", Bytes: t.Bytes(),
			Reason: "planned recomputation: dropped now, lineage replay at the back-access",
		})
	}
	return true
}

// FallbackToRecompute abandons the swap path for t and releases it for
// lineage recomputation, recording the degradation in the iteration's
// SwapFallbacks counter. Policies call it when SwapOutAsync fails or the
// link is degraded under fault injection. Tensors still needed after an
// in-place parameter update are refused: their replay would read updated
// weights and corrupt the computation.
func (e *Env) FallbackToRecompute(t *tensor.Tensor) bool {
	if !e.s.fallbackSafe(t) || !e.ReleaseForRecompute(t) {
		return false
	}
	e.s.stats.SwapFallbacks++
	if e.s.tr != nil {
		e.s.decide(obs.Decision{
			Tensor: t.ID, Action: "fallback-recompute", Bytes: t.Bytes(),
			Reason: "policy abandoned the swap path (failed swap-out or degraded link)",
		})
	}
	return true
}

// Evictable reports whether t is currently a legal eviction victim: it
// holds device memory in the evictable state and is neither persistent nor
// pinned by the executing node. Online policies (h-DTR) filter their
// candidate sets through this, so in-flight tensors are never chosen.
func (e *Env) Evictable(t *tensor.Tensor) bool {
	return t.Status == tensor.In && !t.Persistent && !e.s.pinned[t.Idx]
}

// RecomputeSafe reports whether t may be released for lineage
// recomputation: it needs a replayable producer and every remaining use
// must precede the first in-place parameter update, so the replay cannot
// observe modified weights.
func (e *Env) RecomputeSafe(t *tensor.Tensor) bool {
	return e.s.fallbackSafe(t)
}

// LRUResidents returns, oldest first, roughly need bytes of unpinned,
// non-persistent resident tensors — the paper's passive-mode victim scan
// over the tensor access list (§5.2). Policies delegate their OnOOM to
// this helper. The result may cover less than need (fragmentation can
// require evicting more than the shortfall; the executor's OOM loop calls
// OnOOM again until allocation succeeds or no victims remain); an empty
// result means nothing is evictable.
//
// The returned slice is a session-owned scratch buffer, valid until the
// next LRUResidents call: OnOOM implementations hand it straight back to
// the executor, which consumes it before asking again.
func (e *Env) LRUResidents(need int64) []*tensor.Tensor {
	s := e.s
	victims := s.scVictims[:0]
	var got int64
	for i := s.lruHead; i >= 0 && got < need; i = s.lruNext[i] {
		t := s.tlist[i]
		if t.Status != tensor.In || t.Persistent || s.pinned[i] {
			continue
		}
		victims = append(victims, t)
		got += t.Alloc.Size
	}
	s.scVictims = victims
	return victims
}
