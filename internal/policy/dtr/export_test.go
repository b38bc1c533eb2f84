package dtr

import (
	"capuchin/internal/exec"
	"capuchin/internal/sim"
)

// counted wraps a Policy and counts what it does: the tensors it evicted
// and the evicted tensors it observed resident again.
type counted struct {
	*Policy
	evictions, remats int
}

// HandleOOM counts the entries the wrapped HandleOOM evicted: only
// OnAccess restores one, so the evicted set only grows here.
func (c *counted) HandleOOM(need int64, env *exec.Env) (progress, ok bool) {
	before := c.evicted()
	progress, ok = c.Policy.HandleOOM(need, env)
	c.evictions += c.evicted() - before
	return progress, ok
}

// OnAccess counts an access to an evicted entry's tensor that found it
// resident, which the wrapped OnAccess restores.
func (c *counted) OnAccess(acc exec.Access, env *exec.Env) {
	if e := c.entries[acc.Tensor.ID]; e != nil && acc.Kind != exec.Dealloc && e.evicted && acc.Tensor.Resident() {
		c.remats++
	}
	c.Policy.OnAccess(acc, env)
}

// evicted counts the entries currently evicted.
func (c *counted) evicted() int {
	n := 0
	for _, e := range c.entries {
		if e.evicted {
			n++
		}
	}
	return n
}

// Records returns the audit log recorded while Audit was set.
func (p *Policy) Records() []AuditRecord { return p.records }

// projectedCost exposes an entry's current projected cost for the
// round-trip property test.
func (p *Policy) projectedCost(id string) (sim.Time, bool) {
	e, ok := p.entries[id]
	if !ok {
		return 0, false
	}
	return e.projected, true
}
