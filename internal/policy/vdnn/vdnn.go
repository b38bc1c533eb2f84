// Package vdnn implements the vDNN baseline (Rhu et al., MICRO'16) as
// reproduced in the Capuchin paper's evaluation (§6.1): a static,
// layer-wise policy that offloads convolution-layer inputs during the
// forward pass and prefetches them one layer ahead in the backward pass.
// Unlike Capuchin it synchronizes computation with each layer's swap-out
// (run it with exec.Config.CoupledSwap, see Fig. 1) and fails on OOM
// rather than adapting.
package vdnn

import (
	"strings"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// Mode selects which layer inputs are offloaded.
type Mode int

// Offload modes, mirroring the vDNN paper's vDNN_conv and vDNN_all.
const (
	// ConvOnly offloads inputs of convolution layers, the configuration
	// the Capuchin paper compares against.
	ConvOnly Mode = iota
	// All offloads every layer's feature-map input.
	All
)

// Policy is the vDNN baseline.
type Policy struct {
	mode Mode

	// evictAt maps a {tensorID, nodeID} of the tensor's last forward
	// read to the offload action.
	evictAt map[accessKey]bool
	// prefetchAt maps a backward node ID to the tensors to prefetch when
	// that node first touches any tensor.
	prefetchAt map[string][]*tensor.Tensor
	// firedNodes tracks which backward triggers already fired this
	// iteration.
	firedNodes map[string]bool
}

type accessKey struct {
	tensorID string
	nodeID   string
}

var (
	_ exec.Policy        = (*Policy)(nil)
	_ exec.StateDigester = (*Policy)(nil)
)

// New builds the static offload/prefetch schedule from the graph.
func New(g *graph.Graph, mode Mode) *Policy {
	p := &Policy{
		mode:       mode,
		evictAt:    make(map[accessKey]bool),
		prefetchAt: make(map[string][]*tensor.Tensor),
		firedNodes: make(map[string]bool),
	}

	forward := g.ForwardNodes()
	// Collect offload targets: (layer node, its feature-map input).
	type target struct {
		layer *graph.Node
		t     *tensor.Tensor
	}
	var targets []target
	seen := make(map[string]bool)
	for _, n := range forward {
		if !p.offloadLayer(n) {
			continue
		}
		for _, in := range n.Inputs {
			if in.Persistent || in.Gradient || seen[in.ID] || len(in.Shape) < 2 {
				continue
			}
			// Only offload tensors that are needed again (in backward);
			// single-use inputs die on their own.
			if g.ConsumerCount(in) < 2 {
				continue
			}
			seen[in.ID] = true
			targets = append(targets, target{layer: n, t: in})
		}
	}

	// Offload at the tensor's last forward read; prefetch when the
	// backward pass reaches the *next* offloading layer, i.e. one layer
	// ahead of the tensor's own backward use (vDNN's static pipeline).
	for i, tg := range targets {
		last := lastForwardReader(g, tg.t)
		if last == nil {
			continue
		}
		p.evictAt[accessKey{tg.t.ID, last.ID}] = true
		triggerLayer := forward[len(forward)-1]
		if i+1 < len(targets) {
			triggerLayer = targets[i+1].layer
		}
		trigger := "grad/" + triggerLayer.ID
		p.prefetchAt[trigger] = append(p.prefetchAt[trigger], tg.t)
	}
	return p
}

// offloadLayer reports whether a forward node is an offload point.
func (p *Policy) offloadLayer(n *graph.Node) bool {
	op := n.Op
	if f, ok := op.(ops.FusedBias); ok {
		op = f.Inner
	}
	switch op.(type) {
	case ops.Conv2D:
		return true
	default:
		return p.mode == All && n.Phase == graph.Forward
	}
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
func (p *Policy) Name() string {
	if p.mode == All {
		return "vdnn-all"
	}
	return "vdnn"
}

// BeginIteration implements exec.Policy.
func (p *Policy) BeginIteration(iter int, env *exec.Env) {
	clear(p.firedNodes)
}

// OnAccess implements exec.Policy.
func (p *Policy) OnAccess(acc exec.Access, env *exec.Env) {
	if acc.Kind == exec.Dealloc {
		return
	}
	// Backward prefetch triggers: the first access by a matching
	// backward node starts the swap-ins scheduled for that layer.
	nodeID := acc.NodeID()
	if strings.HasPrefix(nodeID, "grad/") {
		base := nodeID
		// Trim the gradient-variant suffix ("/input", "/filter", ...).
		if i := strings.LastIndex(base, "/"); i > len("grad/") {
			if j := strings.Index(base[len("grad/"):], "/"); j >= 0 {
				base = base[:len("grad/")+j]
			}
		}
		if !p.firedNodes[base] {
			p.firedNodes[base] = true
			for _, t := range p.prefetchAt[base] {
				env.SwapInAsync(t)
			}
		}
	}
	if acc.Kind == exec.Read && p.evictAt[accessKey{acc.Tensor.ID, nodeID}] {
		env.SwapOutAsync(acc.Tensor)
	}
}

// OnOOM implements exec.Policy: vDNN's static schedule has no fallback.
func (p *Policy) OnOOM(need int64, env *exec.Env) ([]*tensor.Tensor, bool) {
	return nil, false
}

// EndIteration implements exec.Policy.
func (p *Policy) EndIteration(iter int, env *exec.Env) {}

// TracksAccesses implements exec.Policy: vDNN's bookkeeping is static.
func (p *Policy) TracksAccesses() bool { return false }

// AppendStateDigest implements exec.StateDigester. The schedule is
// static and BeginIteration clears the fired-trigger set, so no state
// carries from one iteration to the next.
func (p *Policy) AppendStateDigest(dst []byte) []byte { return dst }

// Targets reports how many tensors the schedule offloads (for tests).
func (p *Policy) Targets() int { return len(p.evictAt) }
