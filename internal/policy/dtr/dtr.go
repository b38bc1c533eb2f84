// Package dtr implements an h-DTR rival policy (Kirisame et al., "Dynamic
// Tensor Rematerialization", ICLR'21): a fully online eviction scheme with
// no planning pass. Under memory pressure it evicts the resident tensor
// with minimal cost/(size·staleness) — equivalently, maximal
// h = size·staleness/cost — preferring recomputation when the executor can
// replay the tensor's lineage and falling back to a host swap otherwise.
// Evicting a tensor makes its neighbours more expensive to rematerialize
// (regenerating them may first regenerate the evicted tensor), so the
// evicted tensor's projected cost is added to each resident neighbour and
// subtracted back when the tensor returns — DTR's cost-propagation rule.
//
// Where Capuchin measures an iteration and then plans, h-DTR reacts purely
// to the live access stream: it is the "no lookahead" point in the policy
// arena's design space.
package dtr

import (
	"errors"
	"sort"

	"capuchin/internal/core"
	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// entry is the per-tensor DTR metadata.
type entry struct {
	t *tensor.Tensor
	// base is the static producer cost (the h denominator when no
	// neighbour is evicted); projected is base plus the costs inherited
	// from currently-evicted neighbours.
	base, projected sim.Time
	// last is the tensor's most recent access on the hypothetical
	// timeline; staleness is measured against it.
	last sim.Time
	// evicted marks tensors this policy chose to drop and that have not
	// yet been observed resident again.
	evicted bool
	// gave records exactly how much projected cost this entry pushed to
	// each neighbour at eviction time, so restoration is an exact inverse
	// regardless of interleaved evictions.
	gave map[string]sim.Time
	// neighbours are the tensor IDs whose rematerialization cost depends
	// on this tensor: the producer's inputs and the consumers' outputs.
	neighbours []string
	// recomputable reports that the executor can regenerate the tensor by
	// lineage replay (single-output producer).
	recomputable bool
}

// CandidateH is one evictable tensor's score at a victim choice, recorded
// for the audit log.
type CandidateH struct {
	ID        string
	H         float64
	Evictable bool
}

// AuditRecord captures one eviction decision for the property tests: the
// chosen victim, its score, and the full candidate snapshot the choice was
// made over.
type AuditRecord struct {
	Chosen  string
	ChosenH float64
	// Swapped is true when the victim went to host memory rather than
	// being released for recomputation.
	Swapped    bool
	Candidates []CandidateH
}

// Policy is the h-DTR policy.
type Policy struct {
	entries map[string]*entry
	// order lists entry IDs in schedule order for deterministic scans.
	order []string
	now   sim.Time

	// Audit enables per-eviction candidate snapshots (test-only; the
	// snapshots are O(tensors) per eviction).
	Audit   bool
	records []AuditRecord
}

var _ exec.Policy = (*Policy)(nil)
var _ exec.OOMHandler = (*Policy)(nil)

// New builds the DTR metadata from the graph: static producer costs via
// core.ProducerCosts and the neighbour sets the cost-propagation rule
// operates on.
func New(g *graph.Graph, dev hw.DeviceSpec) *Policy {
	p := &Policy{entries: make(map[string]*entry)}
	costs := core.ProducerCosts(g, dev)
	for _, n := range g.Nodes {
		for _, out := range n.Outputs {
			if out.Persistent {
				continue
			}
			if _, dup := p.entries[out.ID]; dup {
				continue
			}
			base := costs[out.Idx]
			if base < 1 {
				base = 1
			}
			prod := g.Producer(out)
			e := &entry{
				t:            out,
				base:         base,
				projected:    base,
				recomputable: prod != nil && len(prod.Outputs) == 1,
			}
			p.entries[out.ID] = e
			p.order = append(p.order, out.ID)
		}
	}
	// Neighbour sets, deduped and excluding self.
	for _, id := range p.order {
		e := p.entries[id]
		seen := map[string]bool{id: true}
		add := func(t *tensor.Tensor) {
			if t.Persistent || seen[t.ID] || p.entries[t.ID] == nil {
				return
			}
			seen[t.ID] = true
			e.neighbours = append(e.neighbours, t.ID)
		}
		if prod := g.Producer(e.t); prod != nil {
			for _, in := range prod.Inputs {
				add(in)
			}
		}
		for _, c := range g.Consumers(e.t) {
			for _, out := range c.Outputs {
				add(out)
			}
		}
		sort.Strings(e.neighbours)
	}
	return p
}

// Name implements exec.Policy.
func (p *Policy) Name() string { return "dtr" }

// TracksAccesses implements exec.Policy: DTR maintains per-access staleness
// state at runtime, so it pays the tracking overhead like Capuchin does.
func (p *Policy) TracksAccesses() bool { return true }

// BeginIteration implements exec.Policy: a fresh iteration starts from the
// static costs again (all activations of the previous iteration are dead).
func (p *Policy) BeginIteration(int, *exec.Env) {
	p.now = 0
	for _, id := range p.order {
		e := p.entries[id]
		e.last = 0
		e.evicted = false
		e.projected = e.base
		e.gave = nil
	}
}

// EndIteration implements exec.Policy.
func (p *Policy) EndIteration(int, *exec.Env) {}

// OnAccess implements exec.Policy. The executor materializes inputs before
// reporting a read, so an access to a tensor this policy evicted means the
// tensor has been rematerialized (or swapped back): its neighbour costs
// are restored exactly.
func (p *Policy) OnAccess(acc exec.Access, env *exec.Env) {
	e := p.entries[acc.Tensor.ID]
	if e == nil {
		return
	}
	if acc.Kind == exec.Dealloc {
		// A dead tensor is never rematerialized; undo its propagation so
		// neighbours stop paying for it.
		if e.evicted {
			p.restore(e)
		}
		return
	}
	p.now = acc.At
	if e.evicted && acc.Tensor.Resident() {
		p.restore(e)
	}
	e.last = acc.At
}

// restore is the exact inverse of evict: each neighbour gets back precisely
// the cost this entry pushed to it, independent of interleaved evictions.
func (p *Policy) restore(e *entry) {
	for nb, amt := range e.gave {
		if n := p.entries[nb]; n != nil {
			n.projected -= amt
		}
	}
	e.gave = nil
	e.evicted = false
}

// evict applies DTR's cost propagation: resident neighbours inherit the
// victim's projected cost, and the amounts are recorded for restore.
func (p *Policy) evict(e *entry) {
	e.evicted = true
	e.gave = make(map[string]sim.Time)
	for _, nb := range e.neighbours {
		n := p.entries[nb]
		if n == nil || n.evicted {
			continue
		}
		n.projected += e.projected
		e.gave[nb] = e.projected
	}
}

// score is h = size·staleness/cost; DTR evicts the maximal-h tensor
// (equivalently the minimal cost/(size·staleness) one).
func (p *Policy) score(e *entry) float64 {
	stale := p.now - e.last
	if stale < 1 {
		stale = 1
	}
	cost := e.projected
	if cost < 1 {
		cost = 1
	}
	return float64(e.t.Bytes()) * float64(stale) / float64(cost)
}

// chooseVictim returns the maximal-h evictable entry (ties broken toward
// the smaller ID), or nil when nothing is evictable.
func (p *Policy) chooseVictim(env *exec.Env, skip map[string]bool) *entry {
	var best *entry
	var bestH float64
	var snapshot []CandidateH
	for _, id := range p.order {
		e := p.entries[id]
		if e.evicted || skip[id] {
			continue
		}
		ok := env.Evictable(e.t)
		h := p.score(e)
		if p.Audit {
			snapshot = append(snapshot, CandidateH{ID: id, H: h, Evictable: ok})
		}
		if !ok {
			continue
		}
		if best == nil || h > bestH || (h == bestH && id < best.t.ID) {
			best, bestH = e, h
		}
	}
	if p.Audit && best != nil {
		p.records = append(p.records, AuditRecord{Chosen: best.t.ID, ChosenH: bestH, Candidates: snapshot})
	}
	return best
}

// HandleOOM implements exec.OOMHandler: evict maximal-h tensors — released
// for recomputation when the executor can replay them safely, swapped to
// host otherwise — until the estimated freed bytes cover the allocation.
// Swaps are asynchronous, so "freed" is an estimate; the executor retries
// the allocation and calls back here if pressure persists.
func (p *Policy) HandleOOM(need int64, env *exec.Env) (progress, ok bool) {
	var freed int64
	skip := make(map[string]bool)
	for freed < need {
		e := p.chooseVictim(env, skip)
		if e == nil {
			break
		}
		if e.recomputable && env.RecomputeSafe(e.t) && env.ReleaseForRecompute(e.t) {
			p.evict(e)
			freed += e.t.Bytes()
			progress = true
			continue
		}
		if env.SwapOutAsync(e.t) {
			p.evict(e)
			if p.Audit && len(p.records) > 0 {
				p.records[len(p.records)-1].Swapped = true
			}
			freed += e.t.Bytes()
			progress = true
			continue
		}
		// Neither action applied (e.g. mid-transfer); never reconsider it
		// in this round.
		skip[e.t.ID] = true
	}
	return progress, true
}

// OnOOM implements exec.Policy. Unused: the executor prefers HandleOOM for
// policies that implement exec.OOMHandler.
func (p *Policy) OnOOM(int64, *exec.Env) ([]*tensor.Tensor, bool) { return nil, false }

func init() {
	exec.RegisterPolicy(exec.PolicySpec{
		Name:  "dtr",
		Doc:   "h-DTR (ICLR'21): online eviction of the max size*staleness/cost tensor, recompute-first",
		Arena: true,
		Build: func(bc exec.BuildContext) (exec.Policy, error) {
			if bc.Graph == nil {
				return nil, errors.New("dtr: policy keys its cost model to one graph")
			}
			return New(bc.Graph, bc.Device), nil
		},
	})
}
