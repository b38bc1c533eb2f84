// Package checkpoint implements the OpenAI gradient-checkpointing baseline
// (a re-implementation of Chen et al.'s sublinear-memory recomputation)
// the Capuchin paper compares against (§6.1). Memory mode checkpoints
// ~sqrt(n) articulation points of the forward graph; speed mode keeps the
// outputs of expensive operations (convolutions and matmuls) and
// recomputes the cheap rest. Everything else that backward needs is
// dropped after its last forward use and regenerated from lineage.
package checkpoint

import (
	"math"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// Mode selects the checkpoint-set heuristic.
type Mode int

// Checkpointing modes (§6.1).
const (
	// Memory aims at O(sqrt(n)) memory by checkpointing a suitable
	// number of articulation points.
	Memory Mode = iota
	// Speed checkpoints the outputs of typically-expensive operations
	// (convolutions and matrix multiplies) so they are never recomputed.
	Speed
)

// Policy is the gradient-checkpointing baseline. Its schedule is keyed
// by Tensor.Idx and depends on the graph's topology only, so every graph
// instantiated from one template shares it.
type Policy struct {
	mode Mode
	// from is the template of the graph the schedule was built from, nil
	// for a graph built from scratch.
	from *graph.Template
	// dropAt holds, per Tensor.Idx of the schedule's graph, the access
	// count of the tensor's last forward access, where it is released for
	// recomputation; 0 means the tensor is never dropped.
	dropAt []int
}

var (
	_ exec.Policy        = (*Policy)(nil)
	_ exec.StateDigester = (*Policy)(nil)
)

// New builds the static drop schedule from the graph.
func New(g *graph.Graph, mode Mode) *Policy {
	g.EnsureIndexed()
	p := &Policy{mode: mode, from: g.Template(), dropAt: make([]int, len(g.TensorList()))}
	keep := checkpoints(g, mode)

	// Drop every forward tensor that backward needs, except checkpoints,
	// at its last forward access.
	for _, n := range g.ForwardNodes() {
		if _, isVar := n.Op.(ops.Variable); isVar {
			continue
		}
		if _, isInput := n.Op.(ops.Input); isInput {
			continue // raw inputs are cheap to keep and not recomputed
		}
		for _, out := range n.Outputs {
			if out.Persistent || keep[out.Idx] {
				continue
			}
			forwardUses, backwardUses := useCounts(g, out)
			if backwardUses == 0 {
				continue // dies naturally after forward
			}
			// Access count at the last forward access: 1 (produce) plus
			// all forward reads.
			p.dropAt[out.Idx] = 1 + forwardUses
		}
	}
	return p
}

// checkpoints marks, per Tensor.Idx of an indexed g, the tensors mode
// keeps resident.
func checkpoints(g *graph.Graph, mode Mode) []bool {
	keep := make([]bool, len(g.TensorList()))
	switch mode {
	case Speed:
		for _, n := range g.ForwardNodes() {
			op := n.Op
			if f, ok := op.(ops.FusedBias); ok {
				op = f.Inner
			}
			switch op.(type) {
			case ops.Conv2D, ops.MatMul:
				keep[n.Outputs[0].Idx] = true
			}
		}
	case Memory:
		arts := graph.ArticulationTensors(g)
		m := int(math.Ceil(math.Sqrt(float64(len(arts)))))
		if m < 1 {
			m = 1
		}
		stride := len(arts) / m
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < len(arts); i += stride {
			keep[arts[i].Idx] = true
		}
	}
	return keep
}

// recycle returns the schedule of g in mode, as New builds it: spare
// itself when it was built in mode from a graph of g's template (a
// schedule depends on the topology only), else a new one.
func recycle(spare *Policy, g *graph.Graph, mode Mode) *Policy {
	if spare == nil || spare.mode != mode || spare.from == nil || spare.from != g.Template() {
		return New(g, mode)
	}
	return spare
}

// useCounts splits a tensor's consumer references by phase.
func useCounts(g *graph.Graph, t *tensor.Tensor) (forward, backward int) {
	for _, c := range g.Consumers(t) {
		refs := 0
		for _, in := range c.Inputs {
			if in == t {
				refs++
			}
		}
		if c.Phase == graph.Forward {
			forward += refs
		} else {
			backward += refs
		}
	}
	return forward, backward
}

// Name implements exec.Policy.
func (p *Policy) Name() string {
	if p.mode == Speed {
		return "openai-speed"
	}
	return "openai-memory"
}

// BeginIteration implements exec.Policy.
func (p *Policy) BeginIteration(int, *exec.Env) {}

// OnAccess implements exec.Policy.
func (p *Policy) OnAccess(acc exec.Access, env *exec.Env) {
	if acc.Kind == exec.Dealloc {
		return
	}
	if i := acc.Tensor.Idx; i >= 0 && int(i) < len(p.dropAt) && p.dropAt[i] == acc.Count {
		env.ReleaseForRecompute(acc.Tensor)
	}
}

// OnOOM implements exec.Policy: the static plan has no fallback.
func (p *Policy) OnOOM(int64, *exec.Env) ([]*tensor.Tensor, bool) { return nil, false }

// EndIteration implements exec.Policy.
func (p *Policy) EndIteration(int, *exec.Env) {}

// TracksAccesses implements exec.Policy.
func (p *Policy) TracksAccesses() bool { return false }

// AppendStateDigest implements exec.StateDigester: the plan is static.
// OnAccess reads access counts, but a parameter's (which runs on across
// iterations) never matches its zero dropAt entry.
func (p *Policy) AppendStateDigest(dst []byte) []byte { return dst }
