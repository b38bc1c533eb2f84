package checkpoint

import "capuchin/internal/graph"

// Drops reports how many tensors the schedule releases for recomputation.
func (p *Policy) Drops() int {
	n := 0
	for _, at := range p.dropAt {
		if at != 0 {
			n++
		}
	}
	return n
}

// Checkpoints reports the size of the set New(g, mode) keeps.
func Checkpoints(g *graph.Graph, mode Mode) int {
	n := 0
	for _, kept := range checkpoints(g, mode) {
		if kept {
			n++
		}
	}
	return n
}
