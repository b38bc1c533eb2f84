package core

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"capuchin/internal/graph"
	"capuchin/internal/sim"
)

// Plans learned in one session can be exported and reloaded: tensor IDs
// and access counts are stable across processes (they derive from graph
// structure), so a plan measured on a tuning run applies directly to a
// production run of the same model and batch size — skipping the measured
// iteration entirely.
//
// The JSON form is also the plan's portable form inside the process: a
// plan indexes one graph's Idx space, and bind re-keys it by ID when it
// meets a graph whose Idx differ.

// planVersion guards the serialized format.
const planVersion = 1

type planDTO struct {
	Version  int              `json:"version"`
	Required int64            `json:"required_bytes"`
	Peak     int64            `json:"peak_bytes"`
	Evict    []evictDTO       `json:"evictions"`
	Swaps    []swapPlanDTO    `json:"swaps"`
	Seq      []seqEntryDTO    `json:"access_sequence"`
	Window   [2]int64         `json:"peak_window_ns"`
	Sizes    map[string]int64 `json:"sizes"`
}

type evictDTO struct {
	ID     string `json:"id"`
	Count  int    `json:"count"`
	Action string `json:"action"`
}

type swapPlanDTO struct {
	ID         string `json:"id"`
	Size       int64  `json:"size"`
	EvictCount int    `json:"evict_count"`
	BackCount  int    `json:"back_count"`
	EvictAtNS  int64  `json:"evict_at_ns"`
	BackAtNS   int64  `json:"back_at_ns"`
	SwapInNS   int64  `json:"swap_in_ns"`
	TriggerIdx int    `json:"trigger_idx"`
}

type seqEntryDTO struct {
	ID    string `json:"id"`
	Count int    `json:"count"`
	AtNS  int64  `json:"at_ns"`
}

// dto returns the plan's portable form, keyed by tensor ID and sorted by
// it.
func (p *plan) dto() *planDTO {
	dto := &planDTO{
		Version:  planVersion,
		Required: p.required,
		Peak:     p.peakUsage,
		Window:   [2]int64{int64(p.windowFrom), int64(p.windowTo)},
		Sizes:    make(map[string]int64),
	}
	for i, size := range p.sizes {
		if size != 0 {
			dto.Sizes[p.names[i]] = size
		}
	}
	for pos, action := range p.evict {
		if action == actionNone {
			continue
		}
		name := "swap"
		if action == actionRecompute {
			name = "recompute"
		}
		e := p.seq[pos]
		dto.Evict = append(dto.Evict, evictDTO{ID: p.names[e.idx], Count: int(e.count), Action: name})
	}
	slices.SortFunc(dto.Evict, func(a, b evictDTO) int {
		if c := cmp.Compare(a.ID, b.ID); c != 0 {
			return c
		}
		return cmp.Compare(a.Count, b.Count)
	})
	for _, sp := range p.swaps {
		if sp == nil {
			continue
		}
		dto.Swaps = append(dto.Swaps, swapPlanDTO{
			ID: p.names[sp.idx], Size: sp.size,
			EvictCount: sp.evictCount, BackCount: sp.backCount,
			EvictAtNS: int64(sp.evictAt), BackAtNS: int64(sp.backAt),
			SwapInNS: int64(sp.swapInDur), TriggerIdx: sp.triggerIdx,
		})
	}
	slices.SortFunc(dto.Swaps, func(a, b swapPlanDTO) int { return cmp.Compare(a.ID, b.ID) })
	for _, e := range p.seq {
		dto.Seq = append(dto.Seq, seqEntryDTO{ID: p.names[e.idx], Count: int(e.count), AtNS: int64(e.at)})
	}
	return dto
}

// compile builds a plan from its portable form. With a graph, the plan
// indexes the graph's tensors; IDs the graph lacks (and, without a graph,
// every ID) get private Idx past the graph's, in order of first mention,
// which no live access carries: they match nothing. Malformed plans are
// errors.
func compile(dto *planDTO, g *graph.Graph) (*plan, error) {
	var names []string
	if g != nil {
		tl := g.TensorList()
		names = make([]string, len(tl), len(tl)+8)
		for i, t := range tl {
			names[i] = t.ID
		}
	}
	private := make(map[string]int32)
	index := func(id string) int32 {
		if g != nil {
			if t := g.Tensor(id); t != nil {
				return t.Idx
			}
		}
		i, ok := private[id]
		if !ok {
			i = int32(len(names))
			names = append(names, id)
			private[id] = i
		}
		return i
	}
	seq := make([]seqEntry, len(dto.Seq))
	for i, s := range dto.Seq {
		seq[i] = seqEntry{idx: index(s.ID), count: int32(s.Count), at: sim.Time(s.AtNS)}
	}
	for _, e := range dto.Evict {
		index(e.ID)
	}
	for _, s := range dto.Swaps {
		index(s.ID)
	}
	ids := make([]string, 0, len(dto.Sizes))
	for id := range dto.Sizes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		index(id)
	}

	p := newPlan(names, seq)
	p.required = dto.Required
	p.peakUsage = dto.Peak
	p.windowFrom, p.windowTo = sim.Time(dto.Window[0]), sim.Time(dto.Window[1])
	for _, id := range ids {
		p.sizes[index(id)] = dto.Sizes[id]
	}
	for _, e := range dto.Evict {
		action := actionSwap
		switch e.Action {
		case "swap":
		case "recompute":
			action = actionRecompute
		default:
			return nil, fmt.Errorf("core: unknown plan action %q", e.Action)
		}
		idx := index(e.ID)
		pos := p.access(idx, e.Count)
		if pos < 0 {
			return nil, fmt.Errorf("core: eviction %s#%d is not in the access sequence", e.ID, e.Count)
		}
		p.evict[pos] = action
		if action == actionRecompute {
			p.numRecompute++
			p.coveredRecomp += p.sizes[idx]
		}
	}
	for _, s := range dto.Swaps {
		if s.TriggerIdx < -1 || s.TriggerIdx >= len(seq) {
			return nil, fmt.Errorf("core: swap %s trigger index %d out of range", s.ID, s.TriggerIdx)
		}
		idx := index(s.ID)
		if p.swaps[idx] != nil {
			return nil, fmt.Errorf("core: duplicate swap %s", s.ID)
		}
		sp := &swapPlan{
			idx: idx, size: s.Size,
			evictCount: s.EvictCount, backCount: s.BackCount,
			evictAt: sim.Time(s.EvictAtNS), backAt: sim.Time(s.BackAtNS),
			swapInDur: sim.Time(s.SwapInNS), triggerIdx: s.TriggerIdx,
			nextTrig: -1,
		}
		p.swaps[idx] = sp
		p.swapList = append(p.swapList, sp)
		p.registerTrigger(sp)
		p.numSwap++
		p.coveredSwap += sp.size
	}
	return p, nil
}

// bind makes p index g's tensors. Rebuilding a graph, or instantiating
// another batch of its template, keeps every tensor's Idx, so a plan
// whose names match g's tensors stays as it is. Otherwise — a loaded
// plan, a plan from another graph — it is re-keyed by ID in place.
func (p *plan) bind(g *graph.Graph) {
	tl := g.TensorList()
	same := true
	for i, id := range p.names {
		if id != "" && (i >= len(tl) || tl[i].ID != id) {
			same = false
			break
		}
	}
	if same {
		return
	}
	q, err := compile(p.dto(), g)
	if err != nil {
		panic("core: rebinding a valid plan failed: " + err.Error())
	}
	*p = *q
}

// ExportPlan serializes the current plan as JSON. It fails before the
// Policy Maker has run.
func (c *Capuchin) ExportPlan(w io.Writer) error {
	if c.plan == nil {
		return fmt.Errorf("core: no plan to export (still in measured execution)")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(c.plan.dto())
}

// LoadPlan constructs a Capuchin policy with a previously exported plan:
// it starts in guided mode immediately, with no measured iteration. The
// plan must come from the same model, batch size and execution mode; its
// tensor IDs resolve against the graph of the first guided iteration, and
// IDs that graph lacks match nothing.
func LoadPlan(r io.Reader, opts Options) (*Capuchin, error) {
	var dto planDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("core: decoding plan: %w", err)
	}
	if dto.Version != planVersion {
		return nil, fmt.Errorf("core: plan version %d, want %d", dto.Version, planVersion)
	}
	p, err := compile(&dto, nil)
	if err != nil {
		return nil, err
	}
	c := New(opts)
	c.plan = p // straight to guided mode
	return c, nil
}
