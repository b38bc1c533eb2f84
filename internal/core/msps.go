package core

import (
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
// adding its producer's measured duration.
func (pl *planner) initRecompute(cands []*cand) {
	n := len(pl.tk.records)
	inSet := bufs.Resized(pl.scratch.inSet, n)
	pl.scratch.inSet = inSet
	for _, c := range cands {
		if c.canRecompute {
			inSet[c.idx] = true
		}
	}
	// visited[i] == stamp marks tensor i seen by the current walk.
	visited := bufs.Resized(pl.scratch.visited, n)
	pl.scratch.visited = visited
	for k, c := range cands {
		if !c.canRecompute {
			continue
		}
		stamp := int32(k + 1)
		c.srcs = c.srcs[:0]
		visited[c.idx] = stamp
		c.rpTime = c.r.producerDur
		pl.walkSources(c, c.r, c.backAt, inSet, visited, stamp)
	}
}

// walkSources recursively classifies the inputs of rec's producer.
func (pl *planner) walkSources(c *cand, rec *record, backAt sim.Time, inSet []bool, visited []int32, stamp int32) {
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
		switch {
		case in.Persistent:
			c.srcs = addSrc(c.srcs, i)
		case inSet[i]:
			// A fellow candidate: assumed in GPU memory for now; the
			// selection loop corrects this when it is chosen (§4.5).
			c.srcs = addSrc(c.srcs, i)
		case ir.deallocAt == liveForever || ir.deallocAt > backAt:
			// Alive at the back-access; serves as the replay source.
			c.srcs = addSrc(c.srcs, i)
		default:
			// Dead by then: must be replayed as well.
			c.rpTime += ir.producerDur
			pl.walkSources(c, ir, backAt, inSet, visited, stamp)
		}
	}
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

// resource replaces i in the sorted source set s by the sources of i's
// own recomputation: s now starts its replay where i's starts.
func resource(s []int32, i int32, from []int32) []int32 {
	at, _ := slices.BinarySearch(s, i)
	s = slices.Delete(s, at, at+1)
	for _, x := range from {
		s = addSrc(s, x)
	}
	return s
}

// chooseNext implements Algorithm 1's comparison: the remaining candidate
// with the least swap overhead (including PCIe-lane saturation) versus the
// one with the highest MSPS; the cheaper of the two is selected. It
// returns the candidate's position in rest, or -1 when no candidate is
// usable. Ties keep the first in rest.
func (pl *planner) chooseNext(rest []*cand) (int, bool) {
	bestSwap, bestRec := -1, -1
	var swapOv sim.Time
	var recMSPS float64
	for i, c := range rest {
		if !pl.opts.RecomputeOnly {
			if ov := pl.effSwapOverhead(c); bestSwap < 0 || ov < swapOv {
				bestSwap, swapOv = i, ov
			}
		}
		if c.canRecompute {
			if m := c.msps(); bestRec < 0 || m > recMSPS {
				bestRec, recMSPS = i, m
			}
		}
	}
	switch {
	case bestSwap < 0:
		return bestRec, false
	case bestRec < 0:
		return bestSwap, true
	}
	if swapOv <= rest[bestRec].recomputeOverhead() {
		return bestSwap, true
	}
	return bestRec, false
}

// selectRecompute commits a candidate to the eviction set as a
// recomputation target and performs Algorithm 2's bookkeeping: tensors
// that used c as a source now start from c's sources (their replay grows
// by c's replay time), and sources shared with already-chosen targets
// accumulate repeated-recomputation penalties (ext_time).
func (pl *planner) selectRecompute(p *plan, c *cand, rest []*cand, recomps []*cand) {
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

	// Lines 5-12 of Algorithm 2: chosen targets that sourced from c now
	// source from c's sources; each such target replays c again.
	extCt := sim.Time(1)
	for _, rp := range recomps {
		if hasSrc(rp.srcs, c.idx) {
			rp.srcs = resource(rp.srcs, c.idx, c.srcs)
			extCt++
		}
	}
	// Lines 17-34: update the remaining candidates' MSPS inputs.
	for _, cd := range rest {
		if cd == c || !cd.canRecompute {
			continue
		}
		if hasSrc(cd.srcs, c.idx) {
			cd.srcs = resource(cd.srcs, c.idx, c.srcs)
			cd.rpTime += c.rpTime
			cd.extTime = 0
			for _, rp := range recomps {
				if hasSrc(rp.srcs, cd.idx) {
					cd.extTime += cd.rpTime
				}
			}
			if hasSrc(c.srcs, cd.idx) {
				cd.extTime += cd.rpTime
			}
		}
		if hasSrc(c.srcs, cd.idx) {
			cd.extTime = extCt * cd.rpTime
		}
	}
}
