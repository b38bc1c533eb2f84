package vdnn

// Targets reports how many tensors the schedule offloads.
func (p *Policy) Targets() int {
	n := 0
	for _, at := range p.evictAt {
		if at != 0 {
			n++
		}
	}
	return n
}
