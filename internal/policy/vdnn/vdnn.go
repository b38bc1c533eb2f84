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

// Policy is the vDNN baseline. Its schedule is keyed by Tensor.Idx and
// Node.Pos and depends on the graph's topology only, so every graph
// instantiated from one template shares it.
type Policy struct {
	mode Mode
	// from is the template of the graph the schedule was built from, nil
	// for a graph built from scratch.
	from *graph.Template

	// evictAt holds, per Tensor.Idx, one past the Node.Pos of the
	// tensor's last forward reader, whose read offloads it; 0 for a
	// tensor never offloaded.
	evictAt []int32
	// trigger holds, per Node.Pos, one past the index in groups of the
	// prefetch group the node's first access starts; 0 for none. A group
	// lists the tensors it prefetches, by Idx.
	trigger []int32
	groups  [][]int32
	// fired marks the groups already started this iteration.
	fired []bool

	// tensors is the running graph's TensorList, to resolve prefetches.
	tensors []*tensor.Tensor
}

var (
	_ exec.Policy        = (*Policy)(nil)
	_ exec.StateDigester = (*Policy)(nil)
)

// New builds the static offload/prefetch schedule from the graph.
func New(g *graph.Graph, mode Mode) *Policy {
	g.EnsureIndexed()
	p := &Policy{
		mode:    mode,
		from:    g.Template(),
		evictAt: make([]int32, len(g.TensorList())),
		trigger: make([]int32, len(g.Nodes)),
	}

	forward := g.ForwardNodes()
	// Collect offload targets: (layer node, its feature-map input).
	type target struct {
		layer *graph.Node
		t     *tensor.Tensor
	}
	var targets []target
	seen := make([]bool, len(g.TensorList()))
	for _, n := range forward {
		if !p.offloadLayer(n) {
			continue
		}
		for _, in := range n.Inputs {
			if in.Persistent || in.Gradient || seen[in.Idx] || len(in.Shape) < 2 {
				continue
			}
			// Only offload tensors that are needed again (in backward);
			// single-use inputs die on their own.
			if g.ConsumerCount(in) < 2 {
				continue
			}
			seen[in.Idx] = true
			targets = append(targets, target{layer: n, t: in})
		}
	}

	// Offload at the tensor's last forward read; prefetch when the
	// backward pass reaches the *next* offloading layer, i.e. one layer
	// ahead of the tensor's own backward use (vDNN's static pipeline).
	// Groups are numbered by first use; members keep target order.
	group := make(map[string]int32)
	for i, tg := range targets {
		last := lastForwardReader(g, tg.t)
		if last == nil {
			continue
		}
		p.evictAt[tg.t.Idx] = int32(last.Pos + 1)
		triggerLayer := forward[len(forward)-1]
		if i+1 < len(targets) {
			triggerLayer = targets[i+1].layer
		}
		key := "grad/" + triggerLayer.ID
		k, ok := group[key]
		if !ok {
			k = int32(len(p.groups))
			group[key] = k
			p.groups = append(p.groups, nil)
		}
		p.groups[k] = append(p.groups[k], tg.t.Idx)
	}
	p.fired = make([]bool, len(p.groups))
	// A backward node starts the group of its layer: its ID up to the
	// first "/" after "grad/" (dropping the gradient-variant suffix,
	// "/input", "/filter", ...) names the trigger.
	for _, n := range g.Nodes {
		if k, ok := group[triggerKey(n.ID)]; ok {
			p.trigger[n.Pos] = k + 1
		}
	}
	return p
}

// recycle returns the schedule of g in mode, as New builds it: spare
// itself, reset, when it was built in mode from a graph of g's template
// (a schedule depends on the topology only), else a new one.
func recycle(spare *Policy, g *graph.Graph, mode Mode) *Policy {
	if spare == nil || spare.mode != mode || spare.from == nil || spare.from != g.Template() {
		return New(g, mode)
	}
	clear(spare.fired)
	spare.tensors = nil
	return spare
}

// triggerKey returns the prefetch trigger a node ID names: a backward
// node's "grad/" prefix and the first path element after it, or "" for
// any other node.
func triggerKey(id string) string {
	if !strings.HasPrefix(id, "grad/") {
		return ""
	}
	if i := strings.LastIndex(id, "/"); i > len("grad/") {
		if j := strings.Index(id[len("grad/"):], "/"); j >= 0 {
			return id[:len("grad/")+j]
		}
	}
	return id
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
	clear(p.fired)
	p.tensors = env.Graph().TensorList()
}

// OnAccess implements exec.Policy.
func (p *Policy) OnAccess(acc exec.Access, env *exec.Env) {
	n := acc.Node
	if acc.Kind == exec.Dealloc || n == nil || n.Pos >= len(p.trigger) {
		return
	}
	// Backward prefetch triggers: the first access by a matching
	// backward node starts the swap-ins scheduled for that layer.
	if k := p.trigger[n.Pos] - 1; k >= 0 && !p.fired[k] {
		p.fired[k] = true
		for _, i := range p.groups[k] {
			env.SwapInAsync(p.tensors[i])
		}
	}
	if i := acc.Tensor.Idx; acc.Kind == exec.Read && i >= 0 && int(i) < len(p.evictAt) && p.evictAt[i] == int32(n.Pos+1) {
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
