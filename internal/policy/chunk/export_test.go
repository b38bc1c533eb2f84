package chunk

// NumChunks reports how many chunks packing produced.
func (p *Policy) NumChunks() int { return len(p.chunks) }

// PlanEvicts counts the plan's chunk evictions.
func (p *Policy) PlanEvicts() int {
	n := 0
	for _, victims := range p.evictAt {
		n += len(victims)
	}
	return n
}
