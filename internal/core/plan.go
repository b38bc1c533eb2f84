package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"capuchin/internal/bufs"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
)

// actionKind is what guided execution does at an evicted-access.
type actionKind uint8

const (
	actionNone actionKind = iota
	actionSwap
	actionRecompute
)

// swapPlan is the guided-execution state of one swapped tensor.
type swapPlan struct {
	idx        int32
	size       int64
	evictCount int
	backCount  int
	evictAt    sim.Time // measured timeline
	backAt     sim.Time
	swapInDur  sim.Time
	// triggerIdx indexes the measured global access sequence; -1 means
	// no in-trigger (fetch on demand at back-access). Feedback moves it
	// earlier at runtime (§4.4).
	triggerIdx int
	// nextTrig links the swaps that share one in-trigger access, in the
	// order they were bound to it; -1 ends the list.
	nextTrig int32
}

// slot locates one access of one tensor in the plan's access sequence.
type slot struct {
	count int32
	pos   int32
}

// plan is the Policy Maker's output: eviction decisions and prefetch
// in-triggers bound to accesses of the measured sequence, and
// bookkeeping for feedback. It is keyed by tensor Idx throughout; the
// {tensor_id, access_count} pair the paper uses to trigger memory
// optimizations across iterations (§5.2) is (Idx, count) here.
type plan struct {
	// names maps each Idx the plan uses to its tensor ID ("" for tensors
	// it never saw), for the export, audit and describe edges and for
	// rebinding the plan to another graph.
	names []string
	seq   []seqEntry
	// slots groups the accesses of seq by tensor: tensor i's accesses
	// are slots[slotOff[i]:slotOff[i+1]], in sequence order.
	slotOff []int32
	slots   []slot
	// evict and trigHead are indexed by sequence position: the eviction
	// bound to that access, and the first swap (by Idx) whose prefetch
	// it triggers, -1 for none. A {tensor, count} pair that occurs twice
	// in the sequence binds both at its first position.
	evict    []actionKind
	trigHead []int32
	// swaps and sizes are indexed by Idx: the swap plan of each swapped
	// tensor (nil otherwise) and each evicted tensor's bytes, making the
	// plan self-contained (usable after export/import without the
	// tracker).
	swaps []*swapPlan
	sizes []int64
	// swapList holds the non-nil swaps, in a fixed order, for the state
	// digest. slab is the storage of the swap plans the Policy Maker
	// selects: sized to the candidate count before selection, so taking
	// a swap plan from it never moves the ones already taken.
	swapList []*swapPlan
	slab     []swapPlan

	required      int64
	coveredSwap   int64
	coveredRecomp int64
	numSwap       int
	numRecompute  int
	peakUsage     int64
	windowFrom    sim.Time
	windowTo      sim.Time
}

// newPlan returns an empty plan over the access sequence seq of a tensor
// index space named by names.
func newPlan(names []string, seq []seqEntry) *plan {
	p := new(plan)
	p.refill(names, seq)
	return p
}

// refill empties p into a plan over seq and names, as newPlan makes,
// reusing p's arrays. Nothing may use p's previous contents afterwards.
func (p *plan) refill(names []string, seq []seqEntry) {
	n := len(names)
	old := *p
	*p = plan{
		names:    names,
		seq:      seq,
		slotOff:  bufs.Resized(old.slotOff, n+1),
		evict:    bufs.Resized(old.evict, len(seq)),
		trigHead: bufs.Resized(old.trigHead, len(seq)),
		swaps:    bufs.Resized(old.swaps, n),
		sizes:    bufs.Resized(old.sizes, n),
		swapList: old.swapList[:0],
		slab:     old.slab[:0],
	}
	off := p.slotOff
	for _, e := range seq {
		off[e.idx+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	// off[i] is now where tensor i's slots start; filling them moves it
	// to where they end, which the shift below turns back into starts.
	p.slots = bufs.Resized(old.slots, int(off[n]))
	for pos, e := range seq {
		p.trigHead[pos] = -1
		p.slots[off[e.idx]] = slot{count: e.count, pos: int32(pos)}
		off[e.idx]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
}

// access returns the sequence position of tensor idx's access number
// count, or -1 when the measured iteration has no such access.
func (p *plan) access(idx int32, count int) int {
	if idx < 0 || int(idx) >= len(p.swaps) {
		return -1
	}
	for _, s := range p.slots[p.slotOff[idx]:p.slotOff[idx+1]] {
		if int(s.count) == count {
			return int(s.pos)
		}
	}
	return -1
}

// swapOf returns tensor idx's swap plan, or nil.
func (p *plan) swapOf(idx int32) *swapPlan {
	if idx < 0 || int(idx) >= len(p.swaps) {
		return nil
	}
	return p.swaps[idx]
}

// triggerPos is the sequence position a swap plan's in-trigger binds to,
// or -1 for none.
func (p *plan) triggerPos(sp *swapPlan) int {
	if sp.triggerIdx < 0 {
		return -1
	}
	e := p.seq[sp.triggerIdx]
	return p.access(e.idx, int(e.count))
}

// registerTrigger (re)binds a swap plan's in-trigger access, appending it
// to the access's list.
func (p *plan) registerTrigger(sp *swapPlan) {
	pos := p.triggerPos(sp)
	if pos < 0 {
		return
	}
	sp.nextTrig = -1
	link := &p.trigHead[pos]
	for *link >= 0 {
		link = &p.swaps[*link].nextTrig
	}
	*link = sp.idx
}

// unregisterTrigger removes a swap plan's current in-trigger binding.
func (p *plan) unregisterTrigger(sp *swapPlan) {
	pos := p.triggerPos(sp)
	if pos < 0 {
		return
	}
	for link := &p.trigHead[pos]; *link >= 0; link = &p.swaps[*link].nextTrig {
		if *link == sp.idx {
			*link = sp.nextTrig
			sp.nextTrig = -1
			return
		}
	}
}

// minCandidateBytes floors eviction-candidate size: PCIe transfers have a
// fixed per-transfer latency, so evicting kilobyte-scale tensors (bias and
// norm-parameter gradients) costs lane slots while saving nothing
// measurable.
const minCandidateBytes = 256 << 10

// cand is one eviction candidate with both its swap pair (the
// consecutive-access pair maximizing Free Time, Eq. 1) and its
// recomputation state (Algorithm 2).
type cand struct {
	r          *record
	idx        int32
	evictCount int
	backCount  int
	evictAt    sim.Time
	backAt     sim.Time
	ft         sim.Time
	// inDur is the tensor's swap-in time, computed once.
	inDur sim.Time

	canRecompute bool
	// srcs is the sorted set of tensors (by Idx) the recomputation
	// replays from.
	srcs    []int32
	rpTime  sim.Time
	extTime sim.Time

	// chosen is how the selection evicts the candidate, actionNone while
	// it remains a candidate.
	chosen actionKind
	// srcHead is one past the index in the planner's srcLinks of the
	// first entry of the list of candidates whose sources include this
	// one, 0 for none; recSrcs counts the chosen recomputations whose
	// sources include it.
	srcHead int32
	recSrcs int32
}

// id is the candidate tensor's ID, for tie-breaks and the audit log.
func (c *cand) id() string { return c.r.t.ID }

// msps is Memory Saving Per Second (Eq. 2): bytes saved per second of
// recomputation.
func (c *cand) msps() float64 {
	total := c.rpTime + c.extTime
	if total <= 0 {
		total = sim.Microsecond // free recomputes still rank by size
	}
	return float64(c.r.size) / total.Seconds()
}

// swapOverhead is the exposed stall of swapping this candidate: zero when
// the Free Time is non-negative, else the uncovered gap.
func (c *cand) swapOverhead() sim.Time {
	if c.ft >= 0 {
		return 0
	}
	return -c.ft
}

// recomputeOverhead is the replay time including repeated-source penalties.
func (c *cand) recomputeOverhead() sim.Time {
	if !c.canRecompute {
		return sim.Time(int64(1) << 62)
	}
	return c.rpTime + c.extTime
}

// planner builds the eviction plan from the measured iteration.
type planner struct {
	tk       *tracker
	opts     Options
	capacity int64
	params   int64
	swapOut  func(int64) sim.Time
	swapIn   func(int64) sim.Time

	// swapBudget bounds the bytes each PCIe direction can move within one
	// iteration; swaps beyond it cannot overlap no matter when they are
	// triggered, so their transfer time counts as pure overhead and
	// recomputation starts to win the Algorithm 1 comparison — producing
	// the mixed plans the paper observes at large batch sizes (§6.3.2).
	swapBudget   int64
	swapConsumed int64
	// penalized counts the candidates of scratch.bySize whose swap
	// overhead includes the lane-budget penalty.
	penalized int

	// decide, when non-nil, records each planning decision with its inputs
	// (Free-Time, MSPS, back-access distance, candidate-set size) in the
	// observability audit log.
	decide func(obs.Decision)

	// scratch is storage a previous build left behind, which this build
	// reuses and leaves for the next.
	scratch planScratch
}

// planScratch is the storage plan builds hand on to each other.
type planScratch struct {
	// spare, when non-nil, is a plan no one uses any more, which build
	// refills instead of allocating one; build consumes it.
	spare *plan
	// The candidates, the pointers the selection ranks them by,
	// initRecompute's walk state and scheduleTriggers' start times.
	found   []cand
	cands   []*cand
	visited []int32
	starts  []sim.Time

	// Algorithm 1's indexes over the candidates of phase B, by position
	// in its fixed candidate order: the swap overheads and the negated
	// MSPS of the candidates that remain, and the positions sorted by
	// size, largest first, the order their lane-budget penalties switch
	// on in.
	swapTree tourney[sim.Time]
	recTree  tourney[float64]
	bySize   []int32
	// candAt holds, by tensor Idx, one past the tensor's position among
	// phase B's candidates, 0 for none. srcLinks stores the lists
	// cand.srcHead heads.
	candAt   []int32
	srcLinks []srcLink
}

// srcLink is one entry of a candidate's list of the candidates sourcing
// from it: the sourcing candidate's position and the next entry, as
// cand.srcHead locates the first.
type srcLink struct {
	pos  int32
	next int32
}

// swapLaneBudget estimates per-direction PCIe capacity over one iteration.
func (pl *planner) swapLaneBudget() int64 {
	const ref = int64(1) << 30
	dur := pl.swapIn(ref) - pl.swapIn(0)
	if dur <= 0 {
		return 1 << 62
	}
	bytesPerSec := float64(ref) / dur.Seconds()
	// Transfers cluster within a phase: swap-outs must finish during the
	// forward pass (roughly a third of the iteration) and swap-ins during
	// the backward window, so only a fraction of the iteration's
	// lane-seconds are usable per direction.
	return int64(pl.tk.endOfIteration.Seconds() * bytesPerSec / 4)
}

// build runs candidate identification (§4.5), the swap-first selection,
// and the hybrid Algorithm 1 loop.
func (pl *planner) build() *plan {
	p := pl.scratch.spare
	pl.scratch.spare = nil
	if p == nil {
		p = new(plan)
	}
	names := bufs.Resized(p.names, len(pl.tk.records))
	for i := range pl.tk.records {
		if t := pl.tk.records[i].t; t != nil {
			names[i] = t.ID
		}
	}
	p.refill(names, pl.tk.seq)
	curve, peak := pl.tk.usageCurve()
	p.peakUsage = peak
	// The plan keeps 1/headroomDiv of device memory free for workspace
	// and fragmentation.
	const headroomDiv = 12
	threshold := pl.capacity - pl.params - pl.capacity/headroomDiv
	required := peak - threshold
	p.required = required
	if required <= 0 {
		if pl.decide != nil {
			pl.decide(obs.Decision{
				Action: "plan", Bytes: required,
				Reason: fmt.Sprintf("measured peak %s fits under the %s threshold; no evictions planned",
					obs.FmtBytes(peak), obs.FmtBytes(threshold)),
			})
		}
		return p // everything fits; passive mode remains as a safety net
	}
	wFrom, wTo, ok := peakWindow(curve, threshold)
	if !ok {
		return p
	}
	p.windowFrom, p.windowTo = wFrom, wTo

	candidates := pl.identifyCandidates(wFrom, wTo)
	p.slab = slices.Grow(p.slab, len(candidates))
	// Ranked by Free Time, longest first (§4.5); IDs are unique, so the
	// order is total and independent of the order candidates were found.
	slices.SortFunc(candidates, func(a, b *cand) int {
		if c := cmp.Compare(b.ft, a.ft); c != 0 {
			return c
		}
		return cmp.Compare(a.id(), b.id())
	})

	// Phase A: swaps whose transfer hides completely under computation,
	// while the PCIe lane still has capacity this iteration.
	pl.swapBudget = pl.swapLaneBudget()
	remaining := required
	rest := candidates[:0]
	for _, c := range candidates {
		if remaining > 0 && c.ft >= 0 && !pl.opts.RecomputeOnly &&
			pl.swapConsumed+c.r.size <= pl.swapBudget {
			pl.selectSwap(p, c, "non-negative Free-Time: transfer hides fully under compute (phase A)")
			remaining -= c.r.size
			continue
		}
		rest = append(rest, c)
	}

	// Phase B: hybrid selection between the cheapest swap and the best
	// recomputation (Algorithm 1), with Algorithm 2's MSPS maintenance.
	// rest keeps its order; a chosen candidate leaves the indexes only.
	if remaining > 0 && len(rest) > 0 {
		pl.initRecompute(rest)
		pl.rankCandidates(rest)
		for left := len(rest); remaining > 0 && left > 0; left-- {
			k, isSwap := pl.chooseNext(rest)
			if k < 0 {
				break
			}
			c := rest[k]
			pl.scratch.swapTree.drop(k)
			pl.scratch.recTree.drop(k)
			if isSwap {
				pl.selectSwap(p, c, "lowest swap overhead beat best-MSPS recomputation (Algorithm 1)")
				pl.penalize(rest)
			} else {
				pl.selectRecompute(p, rest, k)
			}
			remaining -= c.r.size
		}
	}
	pl.scheduleTriggers(p)
	if pl.decide != nil {
		pl.decide(obs.Decision{
			Action: "plan", Bytes: required, Candidates: len(candidates),
			Reason: fmt.Sprintf("need %s beyond threshold: swap %d tensors (%s), recompute %d (%s)",
				obs.FmtBytes(required), p.numSwap, obs.FmtBytes(p.coveredSwap),
				p.numRecompute, obs.FmtBytes(p.coveredRecomp)),
		})
	}
	return p
}

// scheduleTriggers picks in-triggers for all selected swaps. The feedback
// feature (§4.4) owns the PCIe-occupancy insight: with it enabled the
// initial schedule chains deadlines across the exclusive lane (a prefetch
// queues behind its predecessor, so its effective deadline is the earlier
// of its own back-access and the slot the next prefetch needs) and the
// runtime loop corrects residual error; without it (the ATP+DS ablation)
// each trigger naively assumes a dedicated lane.
func (pl *planner) scheduleTriggers(p *plan) {
	plans := slices.Grow(p.swapList[:0], p.numSwap)
	for _, sp := range p.swaps {
		if sp != nil {
			plans = append(plans, sp)
		}
	}
	slices.SortFunc(plans, func(a, b *swapPlan) int {
		if c := cmp.Compare(a.backAt, b.backAt); c != 0 {
			return c
		}
		return cmp.Compare(p.names[a.idx], p.names[b.idx])
	})
	starts := bufs.Resized(pl.scratch.starts, len(plans))
	pl.scratch.starts = starts
	if pl.opts.DisableFeedback {
		for i, sp := range plans {
			starts[i] = sp.backAt - sp.swapInDur
		}
	} else {
		// Chain deadlines from the last back-access towards the first.
		latestFinish := sim.Time(1) << 62
		for i := len(plans) - 1; i >= 0; i-- {
			latestFinish = sim.MinTime(plans[i].backAt, latestFinish)
			starts[i] = latestFinish - plans[i].swapInDur
			latestFinish = starts[i]
		}
	}
	for i, sp := range plans {
		p.unregisterTrigger(sp)
		sp.triggerIdx = pl.chooseInTrigger(p, sp, starts[i])
		p.registerTrigger(sp)
	}
	p.swapList = plans
}

// identifyCandidates applies the paper's two conditions: more than one
// access, and a lifetime overlapping the peak-memory window (§4.5). The
// swap pair is the consecutive access pair with maximum Free Time.
// Candidates come back in Idx order, in pl's scratch: the next call
// reuses them.
func (pl *planner) identifyCandidates(wFrom, wTo sim.Time) []*cand {
	found := pl.scratch.found[:0]
	for i := range pl.tk.records {
		r := &pl.tk.records[i]
		if r.t == nil || r.t.Persistent || len(r.accesses) < 2 || r.size < minCandidateBytes {
			continue
		}
		from, to := r.lifetime()
		if to < wFrom || from > wTo {
			continue
		}
		c := cand{r: r, idx: int32(i), ft: sim.Time(-1 << 62)}
		outDur := pl.swapOut(r.size)
		c.inDur = pl.swapIn(r.size)
		for j := 0; j+1 < len(r.accesses); j++ {
			a, b := r.accesses[j], r.accesses[j+1]
			if b.at <= a.at {
				continue
			}
			// Eq. 1: FT = SwapInStart - SwapOutEnd.
			ft := (b.at - c.inDur) - (a.at + outDur)
			if ft > c.ft {
				c.ft = ft
				c.evictCount, c.backCount = a.count, b.count
				c.evictAt, c.backAt = a.at, b.at
			}
		}
		if c.evictCount == 0 {
			continue // no usable gap
		}
		// Gradients may be produced by multi-output backward nodes,
		// which lineage replay cannot regenerate; they stay swap-only.
		c.canRecompute = !r.t.Gradient && !pl.opts.SwapOnly
		if len(found) < cap(found) {
			c.srcs = found[:len(found)+1][len(found)].srcs[:0] // keep its array
		}
		found = append(found, c)
	}
	pl.scratch.found = found
	out := pl.scratch.cands[:0]
	for i := range found {
		out = append(out, &found[i])
	}
	pl.scratch.cands = out
	return out
}

// selectSwap commits a candidate to the eviction set as a swap and picks
// its in-trigger. reason explains which selection phase chose it, for the
// audit log.
func (pl *planner) selectSwap(p *plan, c *cand, reason string) {
	p.slab = append(p.slab, swapPlan{
		idx:        c.idx,
		size:       c.r.size,
		evictCount: c.evictCount,
		backCount:  c.backCount,
		evictAt:    c.evictAt,
		backAt:     c.backAt,
		swapInDur:  c.inDur,
		triggerIdx: -1,
		nextTrig:   -1,
	})
	sp := &p.slab[len(p.slab)-1]
	c.chosen = actionSwap
	p.evict[p.access(c.idx, c.evictCount)] = actionSwap
	p.sizes[c.idx] = c.r.size
	p.swaps[c.idx] = sp
	p.numSwap++
	p.coveredSwap += c.r.size
	pl.swapConsumed += c.r.size
	if pl.decide != nil {
		pl.decide(obs.Decision{
			Tensor: c.id(), Action: "plan-swap", Bytes: c.r.size, Reason: reason,
			FreeTime:   c.ft,
			BackAccess: c.backAt - c.evictAt,
		})
	}
}

// chooseInTrigger finds the access at which to start the prefetch: the
// latest access no later than the ideal start time, preferring points
// outside the peak-memory window, and strictly after the evicted-access
// (§4.4).
func (pl *planner) chooseInTrigger(p *plan, sp *swapPlan, ideal sim.Time) int {
	seq := p.seq
	// Latest entry at or before ideal.
	idx := sort.Search(len(seq), func(i int) bool { return seq[i].at > ideal }) - 1
	for idx >= 0 {
		e := seq[idx]
		if e.at <= sp.evictAt {
			return -1 // cannot prefetch before the eviction completes
		}
		if e.idx == sp.idx {
			idx--
			continue // don't trigger on the swapped tensor itself
		}
		// Avoid triggering inside the peak window when a later point
		// before the back-access exists outside it.
		if e.at >= p.windowFrom && e.at <= p.windowTo && sp.backAt > p.windowTo {
			if later := pl.firstAfter(p, p.windowTo, sp); later >= 0 {
				return later
			}
		}
		return idx
	}
	return -1
}

// firstAfter finds the earliest usable trigger access strictly after t and
// before the back-access.
func (pl *planner) firstAfter(p *plan, t sim.Time, sp *swapPlan) int {
	seq := p.seq
	idx := sort.Search(len(seq), func(i int) bool { return seq[i].at > t })
	for ; idx < len(seq); idx++ {
		e := seq[idx]
		if e.at >= sp.backAt {
			return -1
		}
		if e.idx != sp.idx {
			return idx
		}
	}
	return -1
}
