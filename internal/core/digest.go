package core

import (
	"encoding/binary"

	"capuchin/internal/exec"
	"capuchin/internal/tensor"
)

var _ exec.StateDigester = (*Capuchin)(nil)

// paramTrigger returns the parameter whose access sp's in-trigger is
// bound to, with that access's count, or nil when the in-trigger is not
// a parameter access.
//
// Parameters' access counters run on across iterations (endIteration
// never resets them), and the plan keys accesses by {tensor, count}. So
// such an in-trigger fires only in the iteration whose counts the plan
// was measured at, and once the counter has passed its count, never
// again while it stays where it is. No other parameter key can change a
// decision: Env refuses to swap out or release a persistent tensor, so
// an eviction or swap planned on one does nothing.
func (c *Capuchin) paramTrigger(sp *swapPlan) (*tensor.Tensor, int) {
	if sp.triggerIdx < 0 {
		return nil, 0
	}
	e := c.plan.seq[sp.triggerIdx]
	if int(e.idx) >= len(c.tensors) || !c.tensors[e.idx].Persistent {
		return nil, 0
	}
	return c.tensors[e.idx], int(e.count)
}

// AppendStateDigest implements exec.StateDigester. It encodes:
//   - whether a measured iteration is pending: the plan's presence,
//     measureLeft and the tracker's;
//   - the plan's identity: the build, invalidation and cache-hit counts
//     and the shape signature;
//   - the prefetch queue (EndIteration empties it);
//   - each swap plan's in-trigger and its link in the in-trigger's chain,
//     which fixes the order prefetches issue in. Feedback moves these;
//   - the parameter counters: one byte saying every in-trigger bound to
//     a parameter access is behind its counter (paramTrigger), or, until
//     then, those counters.
//
// A plan not yet bound to a graph (a loaded or cached one) is bound at
// the next BeginIteration, so a boundary holding one is never the second
// of two equal boundaries; its swaps are not encoded. Nothing else the
// guided hooks read changes between boundaries: the plan's sequence,
// evictions and sizes are fixed once built, and BeginIteration resets
// the rest. The encoding is O(swaps) and allocates nothing once dst has
// grown to fit it.
//
// A bound plan that swaps and recomputes nothing, with no prefetch
// queued, is encoded as the state its measured iteration started from:
// no plan, one measured iteration pending, one plan build fewer (§6.3.2:
// with enough memory Capuchin only tracks accesses). A guided iteration
// under it does what the measured one did, access for access: neither
// acts on an access, and both evict on demand alone (OnOOM). Only the
// measured iteration's EndIteration differs, by building the plan, and
// a guided one's records nothing. So the boundary after the measured
// iteration repeats the one before it, and Run repeats the measured
// iteration without its EndIteration's records.
func (c *Capuchin) AppendStateDigest(dst []byte) []byte {
	queued := c.pendingPrefetch[c.pendingHead:]
	bound := c.plan != nil && c.planGraph != nil
	if bound && c.plan.numSwap == 0 && c.plan.numRecompute == 0 && len(queued) == 0 {
		// The measured iteration's start: no plan, no tracker, no queue.
		return binary.AppendUvarint(c.appendCounters(dst, 0, 1, c.plansBuilt-1), 0)
	}
	var flags byte
	if c.plan != nil {
		flags |= 1
	}
	if c.tk != nil {
		flags |= 2
	}
	if bound {
		flags |= 4
	}
	dst = c.appendCounters(dst, flags, c.measureLeft, c.plansBuilt)
	dst = binary.AppendUvarint(dst, uint64(len(queued)))
	for _, i := range queued {
		dst = binary.AppendUvarint(dst, uint64(i))
	}
	if !bound {
		return dst
	}
	passed := true
	for _, sp := range c.plan.swapList {
		dst = binary.AppendVarint(dst, int64(sp.triggerIdx))
		dst = binary.AppendVarint(dst, int64(sp.nextTrig))
		if t, count := c.paramTrigger(sp); t != nil && t.AccessCount < count {
			passed = false
		}
	}
	if passed {
		return append(dst, 1)
	}
	dst = append(dst, 0)
	for _, sp := range c.plan.swapList {
		if t, _ := c.paramTrigger(sp); t != nil {
			dst = binary.AppendUvarint(dst, uint64(t.AccessCount))
		}
	}
	return dst
}

// appendCounters appends the digest's head: flags, the pending measured
// iterations and plan builds given, then the invalidation and cache-hit
// counts and the shape signature.
func (c *Capuchin) appendCounters(dst []byte, flags byte, measureLeft, plansBuilt int) []byte {
	dst = append(dst, flags)
	for _, v := range [...]int{measureLeft, plansBuilt, c.invalidations, c.cacheHits, len(c.sig)} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return append(dst, c.sig...)
}
