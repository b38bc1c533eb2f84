package core

import (
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/ops"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// ProducerCosts estimates, per non-persistent tensor, the compute cost of
// regenerating it by re-running its producer: the fastest algorithm's
// duration on the given device, indexed by Tensor.Idx (zero for
// persistent tensors and graph inputs). Capuchin's own planner prices
// recomputation from measured durations, but rival policies that plan
// before any measured pass (h-DTR's cost/(size·staleness) ranking, chunk
// placement) need a static estimate; sharing the estimator here keeps
// their cost model consistent with the simulator's kernel timings instead
// of each policy inventing its own.
func ProducerCosts(g *graph.Graph, dev hw.DeviceSpec) []sim.Time {
	g.EnsureIndexed()
	costs := make([]sim.Time, len(g.TensorList()))
	var inShapes []tensor.Shape
	var algos []ops.Algorithm
	for _, n := range g.Nodes {
		inShapes = inShapes[:0]
		for _, in := range n.Inputs {
			inShapes = append(inShapes, in.Shape)
		}
		algos = n.Op.Algorithms(dev, inShapes, algos[:0])
		if len(algos) == 0 {
			continue
		}
		dur := algos[0].Duration
		for _, out := range n.Outputs {
			if out.Persistent {
				continue
			}
			costs[out.Idx] = dur
		}
	}
	return costs
}
