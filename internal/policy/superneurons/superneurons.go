// Package superneurons implements the SuperNeurons baseline (Wang et al.,
// PPoPP'18), the third system family the Capuchin paper positions against
// (§3.1, §7): liveness-based freeing, a unified tensor pool that offloads
// convolution inputs with one-layer-lookahead prefetch, and cost-aware
// recomputation that regenerates cheap memory-bound layers (ReLU, pooling,
// batch norm) while never recomputing convolutions. Like vDNN and
// gradient checkpointing it decides from static layer types, so it
// inherits the §3.1 failure modes Capuchin is built to avoid: it has no
// notion of how long a particular layer actually takes, and it fails on
// OOM rather than adapting.
package superneurons

import (
	"strings"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// Policy is the SuperNeurons baseline.
type Policy struct {
	// swapAt maps {tensorID, nodeID} of a conv input's last forward read
	// to an offload action.
	swapAt map[accessKey]bool
	// prefetchAt maps a backward trigger node to tensors to prefetch.
	prefetchAt map[string][]*tensor.Tensor
	// dropAt maps {tensorID, accessCount} of a cheap layer output's last
	// forward access to a release-for-recompute action.
	dropAt map[countKey]bool
	fired  map[string]bool
}

type accessKey struct {
	tensorID string
	nodeID   string
}

type countKey struct {
	tensorID string
	count    int
}

var _ exec.Policy = (*Policy)(nil)

// cheapLayer reports whether a forward node is a cost-aware recomputation
// target: memory-bound layers SuperNeurons always regenerates.
func cheapLayer(n *graph.Node) bool {
	switch op := n.Op.(type) {
	case ops.Pool, ops.BatchNorm:
		return true
	case ops.Pointwise:
		return op == ops.ReLU || op == ops.Sigmoid || op == ops.Tanh
	default:
		return false
	}
}

// convLayer reports whether a node is a convolution (never recomputed,
// input offloaded).
func convLayer(n *graph.Node) bool {
	op := n.Op
	if f, ok := op.(ops.FusedBias); ok {
		op = f.Inner
	}
	switch op.(type) {
	case ops.Conv2D, ops.DepthwiseConv2D:
		return true
	default:
		return false
	}
}

// New builds the static schedule from the graph.
func New(g *graph.Graph) *Policy {
	p := &Policy{
		swapAt:     make(map[accessKey]bool),
		prefetchAt: make(map[string][]*tensor.Tensor),
		dropAt:     make(map[countKey]bool),
		fired:      make(map[string]bool),
	}
	forward := g.ForwardNodes()

	// Cost-aware recomputation: cheap layer outputs needed by backward
	// are dropped at their last forward access.
	dropped := make(map[string]bool)
	for _, n := range forward {
		if !cheapLayer(n) {
			continue
		}
		for _, out := range n.Outputs {
			if out.Persistent {
				continue
			}
			forwardUses, backwardUses := useCounts(g, out)
			if backwardUses == 0 {
				continue
			}
			p.dropAt[countKey{out.ID, 1 + forwardUses}] = true
			dropped[out.ID] = true
		}
	}

	// Unified tensor pool: offload conv inputs not already scheduled for
	// recomputation, prefetching one conv ahead in backward.
	type target struct {
		layer *graph.Node
		t     *tensor.Tensor
	}
	var targets []target
	seen := make(map[string]bool)
	for _, n := range forward {
		if !convLayer(n) {
			continue
		}
		for _, in := range n.Inputs {
			if in.Persistent || in.Gradient || seen[in.ID] || dropped[in.ID] || len(in.Shape) < 2 {
				continue
			}
			if g.ConsumerCount(in) < 2 {
				continue
			}
			seen[in.ID] = true
			targets = append(targets, target{layer: n, t: in})
		}
	}
	for i, tg := range targets {
		last := lastForwardReader(g, tg.t)
		if last == nil {
			continue
		}
		p.swapAt[accessKey{tg.t.ID, last.ID}] = true
		triggerLayer := forward[len(forward)-1]
		if i+1 < len(targets) {
			triggerLayer = targets[i+1].layer
		}
		trigger := "grad/" + triggerLayer.ID
		p.prefetchAt[trigger] = append(p.prefetchAt[trigger], tg.t)
	}
	return p
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

// lastForwardReader finds the last forward-phase node reading t.
func lastForwardReader(g *graph.Graph, t *tensor.Tensor) *graph.Node {
	var last *graph.Node
	for _, c := range g.Consumers(t) {
		if c.Phase == graph.Forward {
			last = c
		}
	}
	return last
}

// Name implements exec.Policy.
func (p *Policy) Name() string { return "superneurons" }

// BeginIteration implements exec.Policy.
func (p *Policy) BeginIteration(iter int, env *exec.Env) {
	clear(p.fired)
}

// OnAccess implements exec.Policy.
func (p *Policy) OnAccess(acc exec.Access, env *exec.Env) {
	if acc.Kind == exec.Dealloc {
		return
	}
	nodeID := acc.NodeID()
	if strings.HasPrefix(nodeID, "grad/") {
		base := nodeID
		if j := strings.Index(base[len("grad/"):], "/"); j >= 0 {
			base = base[:len("grad/")+j]
		}
		if !p.fired[base] {
			p.fired[base] = true
			for _, t := range p.prefetchAt[base] {
				env.SwapInAsync(t)
			}
		}
	}
	if acc.Kind == exec.Read && p.swapAt[accessKey{acc.Tensor.ID, nodeID}] {
		env.SwapOutAsync(acc.Tensor)
		return
	}
	if p.dropAt[countKey{acc.Tensor.ID, acc.Count}] {
		env.ReleaseForRecompute(acc.Tensor)
	}
}

// OnOOM implements exec.Policy: the static schedule has no fallback.
func (p *Policy) OnOOM(int64, *exec.Env) ([]*tensor.Tensor, bool) { return nil, false }

// EndIteration implements exec.Policy.
func (p *Policy) EndIteration(int, *exec.Env) {}

// TracksAccesses implements exec.Policy.
func (p *Policy) TracksAccesses() bool { return false }
