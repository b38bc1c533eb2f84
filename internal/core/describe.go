package core

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"capuchin/internal/sim"
)

// PlanEntry describes one eviction decision of the current plan, for
// inspection and debugging.
type PlanEntry struct {
	TensorID string
	// Action is "swap" or "recompute".
	Action string
	Bytes  int64
	// EvictAtCount and BackAtCount are the access counts of the
	// evicted-access and back-access (§4.2 terminology).
	EvictAtCount int
	BackAtCount  int
	// Gap is the measured interval between the two accesses.
	Gap sim.Time
	// FreeTime is Eq. 1's FT for the chosen pair (swaps only).
	FreeTime sim.Time
	// Trigger identifies the in-trigger access ("tensor#count"), or
	// "on-demand" when none was schedulable.
	Trigger string
}

// DescribePlan lists the current plan's decisions, largest tensors first.
// It returns nil before the Policy Maker has run.
func (c *Capuchin) DescribePlan() []PlanEntry {
	if c.plan == nil {
		return nil
	}
	p := c.plan
	var out []PlanEntry
	for pos, action := range p.evict {
		if action == actionNone {
			continue
		}
		a := p.seq[pos]
		e := PlanEntry{
			TensorID:     p.names[a.idx],
			Bytes:        p.sizes[a.idx],
			EvictAtCount: int(a.count),
			Action:       "recompute",
			Trigger:      "on-demand",
		}
		if sp := p.swaps[a.idx]; sp != nil && action == actionSwap {
			e.Action = "swap"
			e.BackAtCount = sp.backCount
			e.Gap = sp.backAt - sp.evictAt
			e.FreeTime = (sp.backAt - sp.swapInDur) - sp.evictAt
			if sp.triggerIdx >= 0 {
				t := p.seq[sp.triggerIdx]
				e.Trigger = fmt.Sprintf("%s#%d", p.names[t.idx], t.count)
			}
		} else if p.access(a.idx, int(a.count)+1) >= 0 {
			e.BackAtCount = int(a.count) + 1
		}
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b PlanEntry) int {
		if c := cmp.Compare(b.Bytes, a.Bytes); c != 0 {
			return c
		}
		if c := cmp.Compare(a.TensorID, b.TensorID); c != 0 {
			return c
		}
		return cmp.Compare(a.EvictAtCount, b.EvictAtCount)
	})
	return out
}

// WritePlan renders the plan as a table.
func (c *Capuchin) WritePlan(w io.Writer) error {
	entries := c.DescribePlan()
	if entries == nil {
		_, err := fmt.Fprintln(w, "no plan (still in measured execution)")
		return err
	}
	if _, err := fmt.Fprintf(w, "%-40s %-10s %10s %8s %12s %s\n",
		"tensor", "action", "bytes", "evict@", "gap", "trigger"); err != nil {
		return err
	}
	for _, e := range entries {
		if _, err := fmt.Fprintf(w, "%-40s %-10s %10d %8d %12s %s\n",
			e.TensorID, e.Action, e.Bytes, e.EvictAtCount, e.Gap, e.Trigger); err != nil {
			return err
		}
	}
	return nil
}
