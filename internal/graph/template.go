package graph

import (
	"fmt"

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
// instance owns. An instance can be handed back to Instantiate as a
// spare once no one uses it, and is then refilled, not shared: two
// concurrent calls must not pass the same spare.
type Template struct {
	g        *Graph
	sentinel int64
	// shaped lists the tensor indices and opShaped the node positions
	// whose shape (or op shape attribute) has sentinel-multiple
	// dimensions; dims is the total rank of those shapes and refs the
	// number of tensor references an instance's node inputs, outputs and
	// private lineage slices hold. Instantiate sizes one block each.
	shaped   []int32
	opShaped []int32
	dims     int
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
	// A dry run at the sentinel itself finds what Instantiate rescales.
	r := rebatcher{from: sentinel, to: sentinel}
	for i, tt := range g.tensorList {
		if _, ok := r.shape(tt.Shape); ok {
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
		if _, ok := r.op(n.Op); ok {
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
	t.dims = r.used
	return t, nil
}

// Instantiate returns the template's graph at the given batch size: the
// graph a fresh build at that batch would produce, node for node and
// tensor for tensor, with fresh runtime state. Each call returns an
// independent graph that one session may execute.
//
// spare, when non-nil, is an earlier instance of this template that no
// one uses any more: Instantiate refills its tensor, node, reference,
// shape and producer/consumer blocks and returns it, instead of
// allocating new ones. A spare of another template, or a built graph, is
// ignored. Refilling rewrites every field, so whatever batch, runtime
// state or rescaled shapes the spare held is gone.
func (t *Template) Instantiate(batch int64, spare *Graph) (*Graph, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("graph %s: batch %d must be positive", t.g.Name, batch)
	}
	g := spare
	if g == nil || g.inst.from != t {
		g = &Graph{inst: t.newInstance()}
	}
	in := g.inst
	src := t.g
	tensors, list, nodes, nodeList, refs := in.tensors, in.list, in.nodes, in.nodeList, in.refs
	r := rebatcher{from: t.sentinel, to: batch, buf: in.dims}

	for i, st := range src.tensorList {
		tt := &tensors[i]
		*tt = *st
		tt.Status, tt.AccessCount, tt.LastAccess = tensor.Freed, 0, 0
		tt.Fingerprint, tt.Alloc = 0, nil
		list[i] = tt
	}
	for _, i := range t.shaped {
		list[i].Shape, _ = r.shape(list[i].Shape)
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
		n := &nodes[pos]
		*n = *sn
		n.Inputs = remap(sn.Inputs)
		n.Outputs = remap(sn.Outputs)
		nodeList[pos] = n
	}
	for _, pos := range t.opShaped {
		nodes[pos].Op, _ = r.op(nodes[pos].Op)
	}
	// A tensor's lineage is its producer's input slice (the Builder and
	// the bias-add fusion both alias them), so instances alias it too.
	for i, st := range src.tensorList {
		if p := src.producer[i]; p != nil && sameSlice(st.Inputs, p.Inputs) {
			list[i].Inputs = nodes[p.Pos].Inputs
		} else {
			list[i].Inputs = remap(st.Inputs)
		}
	}

	np := len(src.producer)
	producer, consumers := in.nodeAt[:np:np], in.nodeAt[np:]
	for i, p := range src.producer {
		producer[i] = nil
		if p != nil {
			producer[i] = &nodes[p.Pos]
		}
	}
	for i, c := range src.consumerFlat {
		consumers[i] = &nodes[c.Pos]
	}
	*g = Graph{
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
	return g, nil
}

// Template returns the template g was instantiated from, or nil for a
// graph built from scratch. Graphs of one template share its topology:
// node and tensor IDs, Node.Pos, Tensor.Idx, phases, lineage and the
// rank of every shape.
func (g *Graph) Template() *Template { return g.inst.from }

// instance is the storage of a graph instantiated from a template, one
// block per kind, kept with the graph so that a later Instantiate of the
// same template can refill it.
type instance struct {
	from     *Template
	tensors  []tensor.Tensor
	list     []*tensor.Tensor
	nodes    []Node
	nodeList []*Node
	refs     []*tensor.Tensor // node inputs, outputs and private lineage
	nodeAt   []*Node          // producers, then the flat consumer lists
	dims     []int64          // rescaled shapes
}

// newInstance allocates the blocks of one instance of t.
func (t *Template) newInstance() instance {
	src := t.g
	return instance{
		from:     t,
		tensors:  make([]tensor.Tensor, len(src.tensorList)),
		list:     make([]*tensor.Tensor, len(src.tensorList)),
		nodes:    make([]Node, len(src.Nodes)),
		nodeList: make([]*Node, len(src.Nodes)),
		refs:     make([]*tensor.Tensor, t.refs),
		nodeAt:   make([]*Node, len(src.producer)+len(src.consumerFlat)),
		dims:     make([]int64, t.dims),
	}
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

// rebatcher rescales the batch-proportional dimensions of a template's
// shapes from the sentinel batch to another, carving the rescaled shapes
// from buf (allocating once buf runs out) and counting the dimensions it
// carves in used.
type rebatcher struct {
	from, to int64
	buf      []int64
	used     int
}

// shape returns s with every sentinel-multiple dimension rescaled, and
// whether there was one; s itself is never modified or returned rescaled.
func (r *rebatcher) shape(s tensor.Shape) (tensor.Shape, bool) {
	scaled := false
	for _, d := range s {
		if d != 0 && d%r.from == 0 {
			scaled = true
			break
		}
	}
	if !scaled {
		return s, false
	}
	n := len(s)
	r.used += n
	var out tensor.Shape
	if len(r.buf) >= n {
		out, r.buf = r.buf[:n:n], r.buf[n:]
	} else {
		out = make(tensor.Shape, n)
	}
	for i, d := range s {
		if d != 0 && d%r.from == 0 {
			d = d / r.from * r.to
		}
		out[i] = d
	}
	return out, true
}

// op returns op with its activation-shape attribute rescaled, and
// whether it had sentinel-multiple dimensions. These four ops are the
// ones whose attributes carry activation shapes: data sources, reshapes,
// and the convolution input gradients that record their input's shape.
// Every other built-in op's attributes (weight shapes, slice bounds,
// permutations) do not depend on the batch.
func (r *rebatcher) op(op ops.Op) (ops.Op, bool) {
	var ok bool
	switch o := op.(type) {
	case ops.Input:
		if o.Shape, ok = r.shape(o.Shape); ok {
			return o, true
		}
	case ops.Reshape:
		if o.To, ok = r.shape(o.To); ok {
			return o, true
		}
	case ops.Conv2DBackpropInput:
		if o.InputShape, ok = r.shape(o.InputShape); ok {
			return o, true
		}
	case ops.DepthwiseBackpropInput:
		if o.InputShape, ok = r.shape(o.InputShape); ok {
			return o, true
		}
	}
	return op, false
}
