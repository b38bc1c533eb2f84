package vdnn

// Targets reports how many tensors the schedule offloads.
func (p *Policy) Targets() int { return p.targets }
