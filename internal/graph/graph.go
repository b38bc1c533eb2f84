// Package graph builds and analyzes the computation graphs the simulator
// executes: a Builder assembles forward operations, reverse-mode autodiff
// derives the backward pass and optimizer updates, and analysis passes
// provide dead-node pruning, bias-add fusion (a graph-mode-only memory
// optimization, §6.4.1 of the paper) and the articulation-point analysis
// that OpenAI-style gradient checkpointing selects its checkpoints with.
package graph

import (
	"fmt"

	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// Phase classifies a node within a training iteration.
type Phase int

// Node phases.
const (
	Forward Phase = iota
	Backward
	Update
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case Forward:
		return "forward"
	case Backward:
		return "backward"
	case Update:
		return "update"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Node is one operation instance in the graph.
type Node struct {
	ID      string
	Op      ops.Op
	Phase   Phase
	Inputs  []*tensor.Tensor
	Outputs []*tensor.Tensor
	// Pos is the node's position in Graph.Nodes, assigned by reindex.
	// Hot-path per-node caches (e.g. the executor's algorithm cache) are
	// keyed by Pos so they never hash node ID strings.
	Pos int
}

// String implements fmt.Stringer.
func (n *Node) String() string {
	return fmt.Sprintf("%s(%s)", n.ID, n.Op.Name())
}

// Graph is a complete training iteration: forward, backward and update
// nodes in executable (topological) order.
type Graph struct {
	Name  string
	Nodes []*Node
	// Loss is the scalar loss tensor.
	Loss *tensor.Tensor

	// index maps tensor ID to Idx. Dense per-tensor indexes, rebuilt by
	// reindex: tensorList[i].Idx == i for every interned tensor; producer
	// and the flat consumer arrays are keyed by that index so steady-state
	// lookups never hash strings. index and consumerOff depend on the
	// topology only, so graphs instantiated from one Template share them.
	index        map[string]int32
	tensorList   []*tensor.Tensor
	producer     []*Node // tensor Idx -> producing node (nil for sources)
	consumerOff  []int32 // tensor Idx -> offset into consumerFlat
	consumerFlat []*Node // consumer lists, concatenated in node order
	cursor       []int32 // reindex scratch, reused across passes
	// inst is what Instantiate refills in an instantiated graph; it is
	// zero for a built graph.
	inst instance
}

// Tensor returns the tensor with the given ID, or nil.
func (g *Graph) Tensor(id string) *tensor.Tensor {
	if i, ok := g.index[id]; ok {
		return g.tensorList[i]
	}
	return nil
}

// TensorList returns every tensor in the graph, densely indexed by
// Tensor.Idx. The slice is owned by the graph and is invalidated by the
// next reindex.
func (g *Graph) TensorList() []*tensor.Tensor { return g.tensorList }

// owned reports whether t is interned in this graph's dense index, i.e.
// t.Idx is a valid key into the producer/consumer arrays.
func (g *Graph) owned(t *tensor.Tensor) bool {
	return t != nil && t.Idx >= 0 && int(t.Idx) < len(g.tensorList) && g.tensorList[t.Idx] == t
}

// Producer returns the node that produces t, or nil for graph inputs.
func (g *Graph) Producer(t *tensor.Tensor) *Node {
	if g.owned(t) {
		return g.producer[t.Idx]
	}
	// Foreign object: fall back to ID identity, matching the historical
	// map-keyed behaviour.
	if own := g.foreign(t); own != nil {
		return g.Producer(own)
	}
	return nil
}

// foreign returns the graph's own tensor sharing t's ID when t itself is
// not interned here, or nil.
func (g *Graph) foreign(t *tensor.Tensor) *tensor.Tensor {
	if t == nil {
		return nil
	}
	if own := g.Tensor(t.ID); own != t {
		return own
	}
	return nil
}

// Consumers returns the nodes that consume t.
func (g *Graph) Consumers(t *tensor.Tensor) []*Node {
	if g.owned(t) {
		return g.consumerFlat[g.consumerOff[t.Idx]:g.consumerOff[t.Idx+1]]
	}
	if own := g.foreign(t); own != nil {
		return g.Consumers(own)
	}
	return nil
}

// ConsumerCount reports how many node inputs reference t (counting
// duplicates, since each reference is a separate access).
func (g *Graph) ConsumerCount(t *tensor.Tensor) int {
	n := 0
	for _, c := range g.Consumers(t) {
		for _, in := range c.Inputs {
			if in == t {
				n++
			}
		}
	}
	return n
}

// ForwardNodes returns the forward-phase nodes in order.
func (g *Graph) ForwardNodes() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Phase == Forward {
			out = append(out, n)
		}
	}
	return out
}

// ParameterBytes reports the total size of persistent tensors (weights).
func (g *Graph) ParameterBytes() int64 {
	var total int64
	for _, t := range g.tensorList {
		if t.Persistent {
			total += t.Bytes()
		}
	}
	return total
}

// EnsureIndexed builds the dense tensor index if it has never been built
// (a hand-assembled graph that bypassed the Builder). Builder-produced
// and Template-instantiated graphs are always indexed, so this never
// mutates a shared graph (or the index instances share with their
// template) that concurrent sessions might be reading.
func (g *Graph) EnsureIndexed() {
	if len(g.tensorList) == 0 && len(g.Nodes) > 0 {
		g.reindex()
	}
}

// reindex rebuilds the dense tensor index from Nodes. Called after passes
// mutate the node list. Every tensor reachable from a node is interned and
// assigned a dense Idx; producer and consumer lookups are then plain array
// loads. Tensors dropped by a pass keep a stale Idx, which the owned()
// identity check rejects, so lookups on them return nil as before.
func (g *Graph) reindex() {
	est := 0
	for _, n := range g.Nodes {
		est += len(n.Outputs) + len(n.Inputs)
	}
	if g.index == nil {
		g.index = make(map[string]int32, est)
	} else {
		clear(g.index)
	}
	list := g.tensorList[:0]
	intern := func(t *tensor.Tensor) int32 {
		if i, ok := g.index[t.ID]; ok {
			if list[i] != t {
				// Two objects share an ID; last one wins, matching the
				// historical map-overwrite behaviour.
				t.Idx = i
				list[i] = t
			}
			return i
		}
		t.Idx = int32(len(list))
		list = append(list, t)
		g.index[t.ID] = t.Idx
		return t.Idx
	}
	for pos, n := range g.Nodes {
		n.Pos = pos
		for _, out := range n.Outputs {
			intern(out)
		}
	}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			intern(in)
		}
	}
	nt := len(list)
	g.tensorList = list

	if cap(g.producer) < nt {
		g.producer = make([]*Node, nt)
	} else {
		g.producer = g.producer[:nt]
		clear(g.producer)
	}
	for _, n := range g.Nodes {
		for _, out := range n.Outputs {
			g.producer[out.Idx] = n
		}
	}

	// Consumer lists dedup within one node by tensor ID (a node reading a
	// tensor twice is still one consumer), exactly as the old map-of-slices
	// did; the dedup is a linear scan because input lists are short.
	// Build runs reindex up to four times on the same graph; reuse the
	// previous pass's arrays when they are big enough.
	counts := g.consumerOff
	if cap(counts) < nt+1 {
		counts = make([]int32, nt+1)
	} else {
		counts = counts[:nt+1]
		clear(counts)
	}
	dedup := func(ins []*tensor.Tensor, i int) bool {
		for j := 0; j < i; j++ {
			if ins[j].Idx == ins[i].Idx {
				return true
			}
		}
		return false
	}
	for _, n := range g.Nodes {
		for i, in := range n.Inputs {
			if !dedup(n.Inputs, i) {
				counts[in.Idx+1]++
			}
		}
	}
	for i := 0; i < nt; i++ {
		counts[i+1] += counts[i]
	}
	g.consumerOff = counts
	// Every slot up to counts[nt] is written by the cursor pass below, so
	// a reused array needs no clearing.
	if need := int(counts[nt]); cap(g.consumerFlat) < need {
		g.consumerFlat = make([]*Node, need)
	} else {
		g.consumerFlat = g.consumerFlat[:need]
	}
	cursor := g.cursor
	if cap(cursor) < nt {
		cursor = make([]int32, nt)
	} else {
		cursor = cursor[:nt]
		clear(cursor)
	}
	g.cursor = cursor
	for _, n := range g.Nodes {
		for i, in := range n.Inputs {
			if !dedup(n.Inputs, i) {
				g.consumerFlat[g.consumerOff[in.Idx]+cursor[in.Idx]] = n
				cursor[in.Idx]++
			}
		}
	}
}

// Validate checks structural sanity: every input is either produced by an
// earlier node or is a source tensor, and IDs are unique. It returns the
// first problem found.
func (g *Graph) Validate() error {
	// Tensors sharing an ID intern to the same Idx, so an Idx-keyed slice
	// is equivalent to the historical ID-keyed map without the hashing.
	g.EnsureIndexed()
	produced := make([]bool, len(g.tensorList))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if !produced[in.Idx] && g.Producer(in) != nil {
				return fmt.Errorf("graph %s: node %s consumes %s before it is produced", g.Name, n.ID, in.ID)
			}
		}
		for _, out := range n.Outputs {
			if produced[out.Idx] {
				return fmt.Errorf("graph %s: tensor %s produced twice", g.Name, out.ID)
			}
			produced[out.Idx] = true
		}
	}
	if g.Loss == nil {
		return fmt.Errorf("graph %s: no loss tensor", g.Name)
	}
	return nil
}
