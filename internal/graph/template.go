package graph

import (
	"fmt"
	"slices"

	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// Template is a training graph built once at a sentinel batch size, from
// which graphs at any batch size are instantiated without rebuilding the
// model: no builder, no autodiff, no passes, no reindex. A model's
// topology, node and tensor IDs and ops do not depend on its batch; only
// activation shapes do, and in a graph built at the sentinel every
// batch-proportional dimension is a multiple of it while no other
// dimension is. Instantiate therefore rescales exactly the sentinel
// multiples.
//
// A Template is immutable once built and safe for concurrent
// Instantiate calls. Instances share its batch-independent state — IDs,
// ops without activation shapes, weight shapes, the ID→Idx index and the
// consumer offsets — so nothing may write through an instance into
// those; the executor writes only tensor runtime state, which every
// instance owns. An instance is linked once, when Instantiate creates
// it; it can be handed back to Instantiate as a spare once no one uses
// it, and is then refilled at the new batch, not shared: two concurrent
// calls must not pass the same spare.
type Template struct {
	g        *Graph
	sentinel int64
	// shaped lists the tensor indices and opShaped the node positions
	// whose shape (or op shape attribute) has sentinel-multiple
	// dimensions, and refs is the number of tensor references an
	// instance's node inputs, outputs and private lineage slices hold.
	// dims holds those shapes' dimensions at the sentinel, in the order
	// an instance carves them from its dims block: tensors first, then
	// op attributes.
	shaped   []int32
	opShaped []int32
	dims     []int64
	refs     int
}

// NewTemplate wraps g, built at batch sentinel, as a Template. g is
// owned by the template from then on: it must never be executed or
// modified. It fails when g holds a tensor reference outside its own
// dense index (two tensor objects sharing an ID), which no Builder
// produces.
func NewTemplate(g *Graph, sentinel int64) (*Template, error) {
	if sentinel <= 1 {
		return nil, fmt.Errorf("graph %s: template sentinel %d must exceed 1", g.Name, sentinel)
	}
	g.EnsureIndexed()
	if !g.owned(g.Loss) {
		return nil, fmt.Errorf("graph %s: template loss is not interned", g.Name)
	}
	t := &Template{g: g, sentinel: sentinel}
	// A dry run of link's carving records what Instantiate rescales.
	c := carver{sentinel: sentinel}
	for i, tt := range g.tensorList {
		if _, ok := c.shape(tt.Shape); ok {
			t.shaped = append(t.shaped, int32(i))
		}
		if p := g.producer[i]; p == nil || !sameSlice(tt.Inputs, p.Inputs) {
			t.refs += len(tt.Inputs)
		}
		if x := g.foreignRef(tt.Inputs); x != nil {
			return nil, fmt.Errorf("graph %s: lineage of %s reaches %s outside the graph", g.Name, tt.ID, x.ID)
		}
	}
	for pos, n := range g.Nodes {
		if _, ok := c.op(n.Op); ok {
			t.opShaped = append(t.opShaped, int32(pos))
		}
		t.refs += len(n.Inputs) + len(n.Outputs)
		x := g.foreignRef(n.Inputs)
		if x == nil {
			x = g.foreignRef(n.Outputs)
		}
		if x != nil {
			return nil, fmt.Errorf("graph %s: node %s references %s outside the graph", g.Name, n.ID, x.ID)
		}
	}
	t.dims = c.dims
	return t, nil
}

// Instantiate returns the template's graph at the given batch size: the
// graph a fresh build at that batch would produce, node for node and
// tensor for tensor, with fresh runtime state. Each call returns an
// independent graph that one session may execute.
//
// spare, when non-nil, is an earlier instance of this template that no
// one uses any more: Instantiate refills and returns it instead of
// linking a new instance. A spare of another template, or a built graph,
// is ignored. An instance is linked once: its tensors, nodes, references
// and producer and consumer arrays are copied from the template, and
// every rescaled shape, tensor shapes and op attributes alike, is a
// slice of its dims block. Every call, first or refill, then does the
// same two things: it resets each tensor's runtime state (status, access
// count, last access, fingerprint and allocation) and rewrites the dims
// block at batch. So nothing of a spare's batch or run survives, and
// nothing batch-independent is copied again.
func (t *Template) Instantiate(batch int64, spare *Graph) (*Graph, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("graph %s: batch %d must be positive", t.g.Name, batch)
	}
	g := spare
	if g == nil || g.inst.from != t {
		g = t.link()
	}
	for i := range g.inst.tensors {
		tt := &g.inst.tensors[i]
		tt.Status, tt.AccessCount, tt.LastAccess = tensor.Freed, 0, 0
		tt.Fingerprint, tt.Alloc = 0, nil
	}
	dims := g.inst.dims
	for i, d := range t.dims {
		if d%t.sentinel == 0 {
			d = d / t.sentinel * batch
		}
		dims[i] = d
	}
	return g, nil
}

// link returns a new instance of t: a copy of the template's graph in
// blocks of its own, with every tensor reference remapped to the
// instance's tensors and every rescaled shape carved from its dims
// block, which still holds the sentinel's dimensions.
func (t *Template) link() *Graph {
	src := t.g
	in := instance{
		from:    t,
		tensors: make([]tensor.Tensor, len(src.tensorList)),
		nodes:   make([]Node, len(src.Nodes)),
	}
	list := make([]*tensor.Tensor, len(src.tensorList))
	nodeList := make([]*Node, len(src.Nodes))
	refs := make([]*tensor.Tensor, t.refs)
	nodeAt := make([]*Node, len(src.producer)+len(src.consumerFlat))
	c := carver{sentinel: t.sentinel, dims: make([]int64, 0, len(t.dims))}

	for i, st := range src.tensorList {
		in.tensors[i] = *st
		list[i] = &in.tensors[i]
	}
	for _, i := range t.shaped {
		list[i].Shape, _ = c.shape(list[i].Shape)
	}
	remap := func(from []*tensor.Tensor) []*tensor.Tensor {
		if len(from) == 0 {
			return nil
		}
		to := refs[:len(from):len(from)]
		refs = refs[len(from):]
		for i, x := range from {
			to[i] = list[x.Idx]
		}
		return to
	}
	for pos, sn := range src.Nodes {
		n := &in.nodes[pos]
		*n = *sn
		n.Inputs = remap(sn.Inputs)
		n.Outputs = remap(sn.Outputs)
		nodeList[pos] = n
	}
	for _, pos := range t.opShaped {
		in.nodes[pos].Op, _ = c.op(in.nodes[pos].Op)
	}
	in.dims = c.dims
	// A tensor's lineage is its producer's input slice (the Builder and
	// the bias-add fusion both alias them), so instances alias it too.
	for i, st := range src.tensorList {
		if p := src.producer[i]; p != nil && sameSlice(st.Inputs, p.Inputs) {
			list[i].Inputs = in.nodes[p.Pos].Inputs
		} else {
			list[i].Inputs = remap(st.Inputs)
		}
	}

	np := len(src.producer)
	producer, consumers := nodeAt[:np:np], nodeAt[np:]
	for i, p := range src.producer {
		if p != nil {
			producer[i] = &in.nodes[p.Pos]
		}
	}
	for i, n := range src.consumerFlat {
		consumers[i] = &in.nodes[n.Pos]
	}
	return &Graph{
		Name:         src.Name,
		Nodes:        nodeList,
		Loss:         list[src.Loss.Idx],
		index:        src.index,
		tensorList:   list,
		producer:     producer,
		consumerOff:  src.consumerOff,
		consumerFlat: consumers,
		inst:         in,
	}
}

// Template returns the template g was instantiated from, or nil for a
// graph built from scratch. Graphs of one template share its topology:
// node and tensor IDs, Node.Pos, Tensor.Idx, phases, lineage and the
// rank of every shape.
func (g *Graph) Template() *Template { return g.inst.from }

// instance is what Instantiate refills in a graph instantiated from a
// template: the tensors and nodes its lists point into, and the dims
// block every rescaled shape is a slice of.
type instance struct {
	from    *Template
	tensors []tensor.Tensor
	nodes   []Node
	dims    []int64
}

// foreignRef returns the first tensor in ts that g has not interned, or
// nil.
func (g *Graph) foreignRef(ts []*tensor.Tensor) *tensor.Tensor {
	for _, x := range ts {
		if !g.owned(x) {
			return x
		}
	}
	return nil
}

// sameSlice reports whether a and b are the same slice: same length and,
// when non-empty, the same backing array start.
func sameSlice(a, b []*tensor.Tensor) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// carver hands out the shapes of a template's graph that hold a
// sentinel multiple, each a copy appended to dims. Appending within
// dims's capacity, as link sizes it, keeps every carved shape a slice of
// one block.
type carver struct {
	sentinel int64
	dims     []int64
}

// shape returns a carved copy of s when s has a sentinel-multiple
// dimension, and whether it had one; otherwise it returns s itself.
func (c *carver) shape(s tensor.Shape) (tensor.Shape, bool) {
	if !slices.ContainsFunc(s, func(d int64) bool { return d != 0 && d%c.sentinel == 0 }) {
		return s, false
	}
	n := len(c.dims)
	c.dims = append(c.dims, s...)
	return c.dims[n:len(c.dims):len(c.dims)], true
}

// op returns op with its activation-shape attribute carved, and whether
// it had sentinel-multiple dimensions. These four ops are the ones whose
// attributes carry activation shapes: data sources, reshapes, and the
// convolution input gradients that record their input's shape. Every
// other built-in op's attributes (weight shapes, slice bounds,
// permutations) do not depend on the batch.
func (c *carver) op(op ops.Op) (ops.Op, bool) {
	var ok bool
	switch o := op.(type) {
	case ops.Input:
		if o.Shape, ok = c.shape(o.Shape); ok {
			return o, true
		}
	case ops.Reshape:
		if o.To, ok = c.shape(o.To); ok {
			return o, true
		}
	case ops.Conv2DBackpropInput:
		if o.InputShape, ok = c.shape(o.InputShape); ok {
			return o, true
		}
	case ops.DepthwiseBackpropInput:
		if o.InputShape, ok = c.shape(o.InputShape); ok {
			return o, true
		}
	}
	return op, false
}
