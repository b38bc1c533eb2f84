package superneurons

// SwapTargets reports the number of offloaded conv inputs: a tensor has
// one last forward read, so one swapAt key.
func (p *Policy) SwapTargets() int { return len(p.swapAt) }

// DropTargets reports the number of recomputation-scheduled cheap
// layers: a tensor has one producer, so one dropAt key.
func (p *Policy) DropTargets() int { return len(p.dropAt) }
