package core

import (
	"cmp"
	"slices"

	"capuchin/internal/bufs"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
)

// initRecompute derives each candidate's recomputation sources and replay
// time from the measured lineage (§4.4): walking the producing operation's
// inputs, an input serves as a source when it is persistent, still alive
// at the candidate's back-access, or itself a candidate (candidates are
// assumed resident until chosen); anything else must be replayed too,
// adding its producer's measured duration. It also lists, for each
// candidate, the candidates whose sources include it, which
// selectRecompute keeps current.
func (pl *planner) initRecompute(cands []*cand) {
	n := len(pl.tk.records)
	s := &pl.scratch
	s.candAt = bufs.Resized(s.candAt, n)
	for k, c := range cands {
		s.candAt[c.idx] = int32(k + 1)
	}
	// visited[i] == stamp marks tensor i seen by the current walk.
	visited := bufs.Resized(s.visited, n)
	s.visited = visited
	links := 0
	for k, c := range cands {
		if !c.canRecompute {
			continue
		}
		stamp := int32(k + 1)
		c.srcs = c.srcs[:0]
		visited[c.idx] = stamp
		c.rpTime = c.r.producerDur
		pl.walkSources(c, c.r, cands, visited, stamp)
		links += len(c.srcs)
	}
	s.srcLinks = slices.Grow(s.srcLinks[:0], 2*links)
	for k, c := range cands {
		for _, x := range c.srcs {
			pl.linkSrc(cands, x, int32(k))
		}
	}
}

// walkSources recursively classifies the inputs of rec's producer.
func (pl *planner) walkSources(c *cand, rec *record, cands []*cand, visited []int32, stamp int32) {
	for _, in := range rec.t.Inputs {
		i := in.Idx
		ir := pl.tk.lookup(i)
		if ir == nil {
			// Never accessed: it stays wherever replay finds it.
			c.srcs = addSrc(c.srcs, i)
			continue
		}
		if visited[i] == stamp {
			continue
		}
		visited[i] = stamp
		switch k := pl.candPos(i); {
		case in.Persistent:
			c.srcs = addSrc(c.srcs, i)
		case k >= 0 && cands[k].canRecompute:
			// A fellow candidate: assumed in GPU memory for now; the
			// selection loop corrects this when it is chosen (§4.5).
			c.srcs = addSrc(c.srcs, i)
		case ir.deallocAt == liveForever || ir.deallocAt > c.backAt:
			// Alive at the back-access; serves as the replay source.
			c.srcs = addSrc(c.srcs, i)
		default:
			// Dead by then: must be replayed as well.
			c.rpTime += ir.producerDur
			pl.walkSources(c, ir, cands, visited, stamp)
		}
	}
}

// candPos returns the position among the candidates of tensor x, or -1
// when x is not a candidate.
func (pl *planner) candPos(x int32) int32 {
	if x < 0 || int(x) >= len(pl.scratch.candAt) {
		return -1
	}
	return pl.scratch.candAt[x] - 1
}

// linkSrc records that the candidate at pos sources from tensor x. Only
// candidates are indexed: a source is looked up when it is chosen.
func (pl *planner) linkSrc(cands []*cand, x, pos int32) {
	k := pl.candPos(x)
	if k < 0 {
		return
	}
	s := &pl.scratch
	s.srcLinks = append(s.srcLinks, srcLink{pos: pos, next: cands[k].srcHead})
	cands[k].srcHead = int32(len(s.srcLinks))
}

// addSrc inserts i into the sorted source set s.
func addSrc(s []int32, i int32) []int32 {
	at, found := slices.BinarySearch(s, i)
	if found {
		return s
	}
	return slices.Insert(s, at, i)
}

// hasSrc reports whether the sorted source set s holds i.
func hasSrc(s []int32, i int32) bool {
	_, found := slices.BinarySearch(s, i)
	return found
}

// resource replaces c in the source set of the candidate at pos by c's
// own sources, as Algorithm 2 does when c is chosen for recomputation:
// its replay now starts where c's starts. It links the sources the
// candidate gains, counts them for a chosen recomputation, and reports
// whether the candidate sourced from c at all.
func (pl *planner) resource(rest []*cand, pos int32, c *cand) bool {
	cd := rest[pos]
	at, found := slices.BinarySearch(cd.srcs, c.idx)
	if !found {
		return false
	}
	// c's own count is read no more: c is being chosen.
	counted := cd.chosen == actionRecompute
	cd.srcs = slices.Delete(cd.srcs, at, at+1)
	for _, x := range c.srcs {
		at, found := slices.BinarySearch(cd.srcs, x)
		if found {
			continue
		}
		cd.srcs = slices.Insert(cd.srcs, at, x)
		pl.linkSrc(rest, x, pos)
		if k := pl.candPos(x); counted && k >= 0 {
			rest[k].recSrcs++
		}
	}
	return true
}

// rankCandidates builds Algorithm 1's indexes over the candidates of
// phase B: each candidate's swap overhead, the lane-budget penalty of
// those the budget already excludes, and each recomputable candidate's
// MSPS.
func (pl *planner) rankCandidates(rest []*cand) {
	s := &pl.scratch
	s.swapTree.reset(len(rest))
	s.recTree.reset(len(rest))
	bySize := s.bySize[:0]
	for k, c := range rest {
		if !pl.opts.RecomputeOnly {
			s.swapTree.place(int32(k), c.swapOverhead())
			bySize = append(bySize, int32(k))
		}
		if c.canRecompute {
			s.recTree.place(int32(k), -c.msps())
		}
	}
	s.swapTree.build()
	s.recTree.build()
	slices.SortFunc(bySize, func(a, b int32) int { return cmp.Compare(rest[b].r.size, rest[a].r.size) })
	s.bySize = bySize
	pl.penalized = 0
	pl.penalize(rest)
}

// penalize adds the lane-budget penalty to the swap overhead of every
// remaining candidate the budget no longer fits: once the budget is
// spent, the full swap-in time is exposed. swapConsumed only grows, so a
// candidate's penalty switches on once, and the largest candidates' first.
func (pl *planner) penalize(rest []*cand) {
	s := &pl.scratch
	for ; pl.penalized < len(s.bySize); pl.penalized++ {
		k := s.bySize[pl.penalized]
		c := rest[k]
		if pl.swapConsumed+c.r.size <= pl.swapBudget {
			return
		}
		if c.chosen == actionNone {
			s.swapTree.set(k, c.swapOverhead()+c.inDur)
		}
	}
}

// chooseNext implements Algorithm 1's comparison: the remaining candidate
// with the least swap overhead (including PCIe-lane saturation) versus the
// one with the highest MSPS; the cheaper of the two is selected. It
// returns the candidate's position in rest, or -1 when no candidate is
// usable. Ties keep the first in rest.
func (pl *planner) chooseNext(rest []*cand) (int32, bool) {
	s := &pl.scratch
	bestSwap, bestRec := s.swapTree.top(), s.recTree.top()
	switch {
	case bestSwap < 0:
		return bestRec, false
	case bestRec < 0:
		return bestSwap, true
	}
	if s.swapTree.keys[bestSwap] <= rest[bestRec].recomputeOverhead() {
		return bestSwap, true
	}
	return bestRec, false
}

// selectRecompute commits the candidate at pos to the eviction set as a
// recomputation target and performs Algorithm 2's bookkeeping: tensors
// that used it as a source now start from its sources (their replay
// grows by its replay time), and sources shared with already-chosen
// targets accumulate repeated-recomputation penalties (ext_time). Only
// the candidates the source index names are touched.
func (pl *planner) selectRecompute(p *plan, rest []*cand, pos int32) {
	c := rest[pos]
	p.evict[p.access(c.idx, c.evictCount)] = actionRecompute
	p.sizes[c.idx] = c.r.size
	p.numRecompute++
	p.coveredRecomp += c.r.size
	if pl.decide != nil {
		pl.decide(obs.Decision{
			Tensor: c.id(), Action: "plan-recompute", Bytes: c.r.size,
			MSPS:       c.msps(),
			BackAccess: c.backAt - c.evictAt,
			Reason:     "highest Memory-Saving-Per-Second among recomputable candidates (Algorithm 2)",
		})
	}

	s := &pl.scratch
	// Lines 5-12 of Algorithm 2: chosen targets that sourced from c now
	// source from c's sources; each such target replays c again. Links
	// resource adds go to the head of the list, past this walk.
	head := c.srcHead
	extCt := sim.Time(1)
	for l := head; l != 0; l = s.srcLinks[l-1].next {
		k := s.srcLinks[l-1].pos
		if rest[k].chosen == actionRecompute && pl.resource(rest, k, c) {
			extCt++
		}
	}
	// Lines 17-34: update the remaining candidates' MSPS inputs, first
	// of those that sourced from c, then of c's sources.
	for l := head; l != 0; l = s.srcLinks[l-1].next {
		k := s.srcLinks[l-1].pos
		cd := rest[k]
		if k == pos || cd.chosen != actionNone || !pl.resource(rest, k, c) {
			continue
		}
		cd.rpTime += c.rpTime
		n := sim.Time(cd.recSrcs)
		if hasSrc(c.srcs, cd.idx) {
			n++
		}
		cd.extTime = n * cd.rpTime
		s.recTree.set(k, -cd.msps())
	}
	for _, x := range c.srcs {
		k := pl.candPos(x)
		if k < 0 || k == pos {
			continue
		}
		if cd := rest[k]; cd.chosen == actionNone && cd.canRecompute {
			cd.extTime = extCt * cd.rpTime
			s.recTree.set(k, -cd.msps())
		}
	}
	c.chosen = actionRecompute
	for _, x := range c.srcs {
		if k := pl.candPos(x); k >= 0 {
			rest[k].recSrcs++
		}
	}
}
