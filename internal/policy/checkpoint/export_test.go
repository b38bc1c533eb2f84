package checkpoint

// Drops reports how many tensors the schedule releases for recomputation.
func (p *Policy) Drops() int { return p.drops }

// Checkpoints reports the size of the kept set.
func (p *Policy) Checkpoints() int { return p.checkpoints }
