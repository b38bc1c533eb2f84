package dtr

import "capuchin/internal/sim"

// Evictions counts the tensors the policy evicted.
func (p *Policy) Evictions() int { return p.evictions }

// Remats counts evicted tensors observed resident again.
func (p *Policy) Remats() int { return p.remats }

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
