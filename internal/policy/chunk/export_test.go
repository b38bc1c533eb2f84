package chunk

// NumChunks reports how many chunks packing produced.
func (p *Policy) NumChunks() int { return len(p.chunks) }

// PlanEvicts counts the plan's chunk evictions.
func (p *Policy) PlanEvicts() int { return p.planEvicts }
