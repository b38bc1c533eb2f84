package superneurons

// SwapTargets reports the number of offloaded conv inputs.
func (p *Policy) SwapTargets() int { return p.swapTargets }

// DropTargets reports the number of recomputation-scheduled cheap layers.
func (p *Policy) DropTargets() int { return p.dropTargets }
