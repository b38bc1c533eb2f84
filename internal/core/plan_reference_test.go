package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// This file keeps the Policy Maker as the paper's pseudocode reads, one
// full scan per decision, as the reference the indexed planner must
// match: refBuild is build with Algorithm 1's selection loop scanning
// every remaining candidate, Algorithm 2's update sweeping them all, and
// the usage curve from a sort of every allocation and free.

// refUsageCurve is usageCurve by sorting: frees before allocations at
// equal times, the peak taken after every event.
func refUsageCurve(tk *tracker) ([]usagePoint, int64) {
	var events []usageEvent
	for i := range tk.records {
		r := &tk.records[i]
		if r.t == nil || r.t.Persistent || len(r.accesses) == 0 {
			continue
		}
		from, to := r.lifetime()
		events = append(events, usageEvent{from, r.size})
		if to != liveForever {
			events = append(events, usageEvent{to, -r.size})
		}
	}
	slices.SortFunc(events, func(a, b usageEvent) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.delta, b.delta)
	})
	var curve []usagePoint
	var usage, peak int64
	for _, e := range events {
		usage += e.delta
		if usage > peak {
			peak = usage
		}
		if n := len(curve); n > 0 && curve[n-1].at == e.at {
			curve[n-1].usage = usage
			continue
		}
		curve = append(curve, usagePoint{at: e.at, usage: usage})
	}
	return curve, peak
}

// refEffSwapOverhead is a candidate's swap overhead including lane
// saturation, computed afresh.
func refEffSwapOverhead(pl *planner, c *cand) sim.Time {
	base := c.swapOverhead()
	if pl.swapConsumed+c.r.size > pl.swapBudget {
		base += c.inDur
	}
	return base
}

// refChooseNext is Algorithm 1's comparison by a scan of rest.
func refChooseNext(pl *planner, rest []*cand) (int, bool) {
	bestSwap, bestRec := -1, -1
	var swapOv sim.Time
	var recMSPS float64
	for i, c := range rest {
		if !pl.opts.RecomputeOnly {
			if ov := refEffSwapOverhead(pl, c); bestSwap < 0 || ov < swapOv {
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

// refResource replaces i in the sorted source set s by from.
func refResource(s []int32, i int32, from []int32) []int32 {
	at, _ := slices.BinarySearch(s, i)
	s = slices.Delete(s, at, at+1)
	for _, x := range from {
		s = addSrc(s, x)
	}
	return s
}

// refSelectRecompute is selectRecompute sweeping every chosen target and
// every remaining candidate.
func refSelectRecompute(pl *planner, p *plan, c *cand, rest, recomps []*cand) {
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
	extCt := sim.Time(1)
	for _, rp := range recomps {
		if hasSrc(rp.srcs, c.idx) {
			rp.srcs = refResource(rp.srcs, c.idx, c.srcs)
			extCt++
		}
	}
	for _, cd := range rest {
		if cd == c || !cd.canRecompute {
			continue
		}
		if hasSrc(cd.srcs, c.idx) {
			cd.srcs = refResource(cd.srcs, c.idx, c.srcs)
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

// refBuild is build with the reference selection and usage curve.
func refBuild(pl *planner) *plan {
	p := new(plan)
	names := make([]string, len(pl.tk.records))
	for i := range pl.tk.records {
		if t := pl.tk.records[i].t; t != nil {
			names[i] = t.ID
		}
	}
	p.refill(names, pl.tk.seq)
	curve, peak := refUsageCurve(pl.tk)
	p.peakUsage = peak
	const headroomDiv = 12
	threshold := pl.capacity - pl.params - pl.capacity/headroomDiv
	required := peak - threshold
	p.required = required
	if required <= 0 {
		return p
	}
	wFrom, wTo, ok := peakWindow(curve, threshold)
	if !ok {
		return p
	}
	p.windowFrom, p.windowTo = wFrom, wTo
	candidates := pl.identifyCandidates(wFrom, wTo)
	p.slab = slices.Grow(p.slab, len(candidates))
	slices.SortFunc(candidates, func(a, b *cand) int {
		if c := cmp.Compare(b.ft, a.ft); c != 0 {
			return c
		}
		return cmp.Compare(a.id(), b.id())
	})
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
	if remaining > 0 && len(rest) > 0 {
		pl.initRecompute(rest)
		var recomps []*cand
		for remaining > 0 && len(rest) > 0 {
			i, isSwap := refChooseNext(pl, rest)
			if i < 0 {
				break
			}
			c := rest[i]
			if isSwap {
				pl.selectSwap(p, c, "lowest swap overhead beat best-MSPS recomputation (Algorithm 1)")
			} else {
				refSelectRecompute(pl, p, c, rest, recomps)
				recomps = append(recomps, c)
			}
			remaining -= c.r.size
			rest = slices.Delete(rest, i, i+1)
		}
	}
	pl.scheduleTriggers(p)
	return p
}

// diffPlanners builds a plan from tk with base's settings twice, by build
// and by refBuild, and reports the first difference: in the usage curve
// and peak, in the decisions made (their order, tensors and inputs), or
// in the plan. It returns the number of candidates the plan selected.
func diffPlanners(tk *tracker, base planner) (int, error) {
	curve, peak := tk.usageCurve()
	curve = slices.Clone(curve)
	refCurve, refPeak := refUsageCurve(tk)
	if peak != refPeak || !slices.Equal(curve, refCurve) {
		return 0, fmt.Errorf("usage curve differs: peak %d, want %d; %d points, want %d", peak, refPeak, len(curve), len(refCurve))
	}
	var got, want []obs.Decision
	pl, ref := base, base
	pl.tk, ref.tk = tk, tk
	pl.decide = func(d obs.Decision) { got = append(got, d) }
	ref.decide = func(d obs.Decision) { want = append(want, d) }
	gp := pl.build()
	wp := refBuild(&ref)
	// refBuild logs no "plan" summary.
	if n := len(got); n > 0 && got[n-1].Action == "plan" {
		got = got[:n-1]
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return 0, fmt.Errorf("decision %d: got %s %s (MSPS %v, FT %v), want %s %s (MSPS %v, FT %v)",
				i, got[i].Action, got[i].Tensor, got[i].MSPS, got[i].FreeTime,
				want[i].Action, want[i].Tensor, want[i].MSPS, want[i].FreeTime)
		}
	}
	if len(got) != len(want) {
		return 0, fmt.Errorf("%d decisions, want %d", len(got), len(want))
	}
	if err := diffPlans(gp, wp); err != nil {
		return 0, err
	}
	return len(got), nil
}

// diffPlans reports the first difference between two plans' decisions.
func diffPlans(a, b *plan) error {
	type summary struct {
		required, coveredSwap, coveredRecomp, peak int64
		numSwap, numRecompute                      int
		from, to                                   sim.Time
	}
	sum := func(p *plan) summary {
		return summary{p.required, p.coveredSwap, p.coveredRecomp, p.peakUsage, p.numSwap, p.numRecompute, p.windowFrom, p.windowTo}
	}
	if sa, sb := sum(a), sum(b); sa != sb {
		return fmt.Errorf("plan summary %+v, want %+v", sa, sb)
	}
	if !slices.Equal(a.evict, b.evict) || !slices.Equal(a.trigHead, b.trigHead) || !slices.Equal(a.sizes, b.sizes) {
		return fmt.Errorf("evictions, in-triggers or sizes differ")
	}
	if len(a.swapList) != len(b.swapList) {
		return fmt.Errorf("%d swaps, want %d", len(a.swapList), len(b.swapList))
	}
	for i := range a.swapList {
		if *a.swapList[i] != *b.swapList[i] {
			return fmt.Errorf("swap %d: %+v, want %+v", i, *a.swapList[i], *b.swapList[i])
		}
	}
	return nil
}

// tieTrace builds a measured trace full of ties: sizes, durations and
// gaps drawn from a few values on a coarse time grid, so candidates tie
// in Free-Time, swap overhead and MSPS. Every operation reads one or two
// recent tensors, and the tensors backward does not read again die right
// after the forward pass, so recomputations replay through chains of
// dead tensors and share sources. Some tensors are gradients (swap-only)
// and one input may be persistent. With shuffle, the Deallocs are
// observed after every access, latest first, and one backward read out
// of time order too.
func tieTrace(rng *rand.Rand, shuffle bool) *tracker {
	tk := newTracker(0, 0)
	n := 12 + rng.Intn(60)
	sizes := []int64{1 << 20, 2 << 20, 4 << 20}
	grid := sim.Time(100) * sim.Microsecond
	type fwd struct {
		t      *tensor.Tensor
		reread bool
	}
	var ts []fwd
	var late []exec.Access
	free := func(t *tensor.Tensor, at sim.Time) {
		acc := exec.Access{Tensor: t, Kind: exec.Dealloc, Count: t.AccessCount, At: at}
		if shuffle {
			late = append(late, acc)
			return
		}
		tk.observe(acc)
	}
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		var inputs []*tensor.Tensor
		for k := 0; k < 1+rng.Intn(2) && len(ts) > 0; k++ {
			in := ts[len(ts)-1-rng.Intn(min(4, len(ts)))].t
			if !slices.Contains(inputs, in) {
				inputs = append(inputs, in)
			}
		}
		x := syntheticTensor(fmt.Sprintf("t%03d", i), sizes[rng.Intn(len(sizes))], inputs...)
		x.Gradient = rng.Intn(8) == 0
		x.Persistent = i == 0 && rng.Intn(2) == 0
		node := "f_" + x.ID
		now += grid * sim.Time(1+rng.Intn(2))
		for _, in := range inputs {
			observeSynth(tk, in, exec.Read, now, node)
		}
		now += grid * sim.Time(1+rng.Intn(3))
		observeSynth(tk, x, exec.Produce, now, node)
		ts = append(ts, fwd{t: x, reread: rng.Intn(3) > 0})
	}
	// Forward-only tensors die at the last forward operation's end,
	// where its output is allocated.
	for _, e := range ts {
		if !e.reread && !e.t.Persistent {
			free(e.t, now)
		}
	}
	now += sim.Time(5+rng.Intn(20)) * grid
	for i := len(ts) - 1; i >= 0; i-- {
		e := ts[i]
		if !e.reread {
			continue
		}
		now += grid * sim.Time(rng.Intn(3))
		if shuffle && i == len(ts)/2 {
			now -= 3 * grid // observed after accesses it precedes
		}
		observeSynth(tk, e.t, exec.Read, now, "g_"+e.t.ID)
		if !e.t.Persistent {
			now += grid * sim.Time(rng.Intn(2))
			free(e.t, now)
		}
	}
	for i := len(late) - 1; i >= 0; i-- {
		tk.observe(late[i])
	}
	tk.finish()
	return tk
}

// TestPlannerMatchesReference is the differential test of the Policy
// Maker: over seeded traces full of ties, under every option set and a
// range of memory capacities and link speeds, the indexed planner makes
// the reference's selections in the reference's order, with the same
// inputs, and the same plan, usage curve and peak.
func TestPlannerMatchesReference(t *testing.T) {
	var selections, multi int
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shuffle := seed%4 == 0
		tk := tieTrace(rng, shuffle)
		if tk.unordered != shuffle {
			t.Fatalf("seed %d: the usage curve falls back to sorting %v, want %v", seed, tk.unordered, shuffle)
		}
		_, peak := refUsageCurve(tk)
		bw := []float64{0.5e9, 2e9, 12e9}[rng.Intn(3)]
		for _, opts := range []Options{{}, {SwapOnly: true}, {RecomputeOnly: true}} {
			for _, frac := range []float64{0.3, 0.6, 0.9} {
				base := planner{
					opts:     opts,
					capacity: int64(float64(peak) * frac),
					swapOut:  func(b int64) sim.Time { return sim.FromSeconds(float64(b) / bw) },
					swapIn:   func(b int64) sim.Time { return sim.FromSeconds(float64(b) / bw) },
				}
				n, err := diffPlanners(tk, base)
				if err != nil {
					t.Fatalf("seed %d, %+v, capacity %.1f of peak: %v", seed, opts, frac, err)
				}
				selections += n
				if opts == (Options{}) && n > 1 {
					multi++
				}
			}
		}
	}
	if selections < 1000 || multi < 100 {
		t.Errorf("the traces made %d selections, %d full-system plans with more than one; the test wants plenty", selections, multi)
	}
}
