package graph

import (
	"fmt"
	"sync"

	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// GradientContext is the surface custom gradient rules use to emit
// backward nodes and record gradient contributions.
type GradientContext struct {
	ad *autodiff
}

// Emit adds a backward node computing op over inputs and returns its
// single output, marked as a gradient. It panics on shape errors, like
// Builder.Apply.
func (gc *GradientContext) Emit(name string, op ops.Op, inputs ...*tensor.Tensor) *tensor.Tensor {
	return gc.ad.apply1(name, op, inputs...)
}

// AddGradient records dt as a gradient contribution for t; contributions
// to the same tensor are summed with AddN automatically.
func (gc *GradientContext) AddGradient(t, dt *tensor.Tensor) {
	gc.ad.addGrad(t, dt)
}

// NeedsGradient reports whether a tensor participates in differentiation
// (raw data sources do not).
func (gc *GradientContext) NeedsGradient(t *tensor.Tensor) bool {
	return gc.ad.needsGrad(t)
}

// GradientFunc derives the backward computation of one forward node: dys
// holds the gradients of the node's outputs (nil entries have none).
type GradientFunc func(gc *GradientContext, n *Node, dys []*tensor.Tensor) error

// gradientRegistry maps op names to user-registered gradient rules. Each
// build runs on a single goroutine, but the experiment engine builds many
// graphs concurrently, so the registry itself must be locked against a
// late RegisterGradient racing those reads.
var (
	gradientMu       sync.RWMutex
	gradientRegistry = map[string]GradientFunc{}
)

// RegisterGradient installs a gradient rule for a custom operator (keyed
// by Op.Name()), enabling autodiff over user-defined operations — the
// "user-defined operations" case the paper's §1 calls out as breaking
// static policies. Built-in operators cannot be overridden. Safe to call
// concurrently with graph builds.
func RegisterGradient(opName string, f GradientFunc) {
	gradientMu.Lock()
	defer gradientMu.Unlock()
	gradientRegistry[opName] = f
}

// customGradient looks up a registered rule for an op name.
func customGradient(opName string) (GradientFunc, bool) {
	gradientMu.RLock()
	defer gradientMu.RUnlock()
	f, ok := gradientRegistry[opName]
	return f, ok
}

// autodiff derives the backward pass of a built forward graph using
// reverse-mode differentiation: walk forward nodes in reverse, accumulate
// gradient contributions per tensor, and emit backward nodes per operation
// kind. The emitted consumption pattern — conv/matmul/norm backward reading
// forward inputs, ReLU/pool/softmax backward reading forward outputs — is
// exactly the long-gap feature-map reuse that Capuchin exploits (§1).
type autodiff struct {
	b   *Builder
	g   *Graph
	opt ops.ApplyGradient

	// grads accumulates gradient contributions keyed by Tensor.Idx — the
	// forward graph is indexed before autodiff runs, and every tensor a
	// gradient attaches to is a forward tensor. gradsOvf catches tensors
	// outside the index (a custom gradient rule inventing one).
	grads    [][]*tensor.Tensor
	gradsOvf map[string][]*tensor.Tensor
}

// addGrad records a gradient contribution for t.
func (ad *autodiff) addGrad(t, dt *tensor.Tensor) {
	if i := int(t.Idx); i >= 0 && i < len(ad.grads) {
		ad.grads[i] = append(ad.grads[i], dt)
		return
	}
	if ad.gradsOvf == nil {
		ad.gradsOvf = make(map[string][]*tensor.Tensor)
	}
	ad.gradsOvf[t.ID] = append(ad.gradsOvf[t.ID], dt)
}

// gradChunk bounds how many contributions one AddN combines. Heavily
// fanned-out tensors (an unrolled RNN's embedding receives one per
// timestep) would otherwise need every contribution resident at once;
// chunking accumulates tree-wise so partial sums free their inputs as the
// reduction proceeds, the way real frameworks scatter-add incrementally.
const gradChunk = 8

// grad sums the contributions for t, emitting AddN reductions when a
// tensor fans out to several consumers. Returns nil when t has no
// gradient.
func (ad *autodiff) grad(t *tensor.Tensor) *tensor.Tensor {
	idx := int(t.Idx)
	indexed := idx >= 0 && idx < len(ad.grads)
	var gs []*tensor.Tensor
	if indexed {
		gs = ad.grads[idx]
	} else {
		gs = ad.gradsOvf[t.ID]
	}
	if len(gs) == 0 {
		return nil
	}
	for len(gs) > 1 {
		var next []*tensor.Tensor
		for i := 0; i < len(gs); i += gradChunk {
			end := i + gradChunk
			if end > len(gs) {
				end = len(gs)
			}
			if end-i == 1 {
				next = append(next, gs[i])
				continue
			}
			next = append(next, ad.apply1("grad/"+t.ID+"/sum", ops.AddN{}, gs[i:end]...))
		}
		gs = next
	}
	if indexed {
		ad.grads[idx] = gs
	} else {
		ad.gradsOvf[t.ID] = gs
	}
	return gs[0]
}

// apply1 emits a backward-phase node and marks its output as a gradient.
func (ad *autodiff) apply1(name string, op ops.Op, inputs ...*tensor.Tensor) *tensor.Tensor {
	out := ad.b.applyPhase(Backward, name, op, inputs...)
	for _, o := range out {
		o.Gradient = true
	}
	if len(out) != 1 {
		panic(fmt.Sprintf("graph: autodiff apply1 on multi-output op %s", op.Name()))
	}
	return out[0]
}

// needsGrad reports whether a tensor participates in differentiation:
// variables and intermediates do, raw data sources do not.
func (ad *autodiff) needsGrad(t *tensor.Tensor) bool {
	p := ad.g.Producer(t)
	if p == nil {
		return false
	}
	if _, isInput := p.Op.(ops.Input); isInput {
		return false
	}
	return true
}

// run derives gradients for every differentiable tensor reachable from
// loss and appends optimizer updates for all variables.
func (ad *autodiff) run(loss *tensor.Tensor) error {
	ad.grads = make([][]*tensor.Tensor, len(ad.g.tensorList))
	forward := make([]*Node, len(ad.g.Nodes))
	copy(forward, ad.g.Nodes)

	seed := ad.apply1("grad/seed", ops.Input{Shape: tensor.Shape{}, DType: tensor.Float32})
	ad.addGrad(loss, seed)

	var variables []*Node
	for i := len(forward) - 1; i >= 0; i-- {
		n := forward[i]
		if _, isVar := n.Op.(ops.Variable); isVar {
			variables = append(variables, n)
			continue
		}
		if _, isInput := n.Op.(ops.Input); isInput {
			continue // data sources are not differentiated
		}
		dys := make([]*tensor.Tensor, len(n.Outputs))
		any := false
		for j, out := range n.Outputs {
			if dy := ad.grad(out); dy != nil {
				dys[j] = dy
				any = true
			}
		}
		if !any {
			continue
		}
		if err := ad.emit(n, dys); err != nil {
			return err
		}
	}

	// Optimizer updates, in forward declaration order for determinism.
	// Stateful rules (Momentum, Adam) carry persistent per-parameter
	// state tensors that occupy device memory for the whole run — the
	// optimizer-memory cost §2.1 describes.
	slots := ad.opt.Effective().StateSlots()
	for i := len(variables) - 1; i >= 0; i-- {
		v := variables[i].Outputs[0]
		dv := ad.grad(v)
		if dv == nil {
			continue // unused variable; pruning may remove it
		}
		inputs := []*tensor.Tensor{v, dv}
		for s := int64(0); s < slots; s++ {
			st := ad.b.applyPhase(Update, fmt.Sprintf("state%d/%s", s, variables[i].ID),
				ops.Variable{Shape: v.Shape})[0]
			st.Persistent = true
			inputs = append(inputs, st)
		}
		ad.b.applyPhase(Update, "update/"+variables[i].ID, ad.opt, inputs...)
	}
	return nil
}

// inversePerm inverts a transpose permutation.
func inversePerm(perm []int) []int {
	inv := make([]int, len(perm))
	for i, p := range perm {
		inv[p] = i
	}
	return inv
}

// forwardRead names the forward tensor an activation's gradient reads
// beside dy.
type forwardRead uint8

const (
	readsNothing forwardRead = iota
	readsInput
	readsOutput
)

// activationGrads is the backward rule of each one-input activation: the
// gradient kind and the forward tensor it reads. Reading the output
// (ReLU, Sigmoid, Tanh, Softmax) or the input (GELU) keeps that feature
// map alive from forward to backward, the two reuse patterns Capuchin
// exploits; Dropout regenerates its mask from a seed and reads neither.
var activationGrads = map[ops.Pointwise]struct {
	grad  ops.Pointwise
	reads forwardRead
}{
	ops.ReLU:    {ops.ReLUGrad, readsOutput},
	ops.GELU:    {ops.GELUGrad, readsInput},
	ops.Sigmoid: {ops.SigmoidGrad, readsOutput},
	ops.Tanh:    {ops.TanhGrad, readsOutput},
	ops.Softmax: {ops.SoftmaxGrad, readsOutput},
	ops.Dropout: {ops.DropoutGrad, readsNothing},
}

// emit produces the backward nodes of one forward node given the gradients
// of its outputs (dys, indexed like Outputs; nil entries have no gradient).
func (ad *autodiff) emit(n *Node, dys []*tensor.Tensor) error {
	dy := dys[0]
	in := n.Inputs
	name := "grad/" + n.ID
	switch op := n.Op.(type) {
	case ops.Conv2D:
		x, w := in[0], in[1]
		if ad.needsGrad(x) {
			dx := ad.apply1(name+"/input", ops.Conv2DBackpropInput{Conv: op, InputShape: x.Shape}, w, dy)
			ad.addGrad(x, dx)
		}
		dw := ad.apply1(name+"/filter", ops.Conv2DBackpropFilter{Conv: op, FilterShape: w.Shape}, x, dy)
		ad.addGrad(w, dw)

	case ops.DepthwiseConv2D:
		x, w := in[0], in[1]
		if ad.needsGrad(x) {
			dx := ad.apply1(name+"/input", ops.DepthwiseBackpropInput{Conv: op, InputShape: x.Shape}, w, dy)
			ad.addGrad(x, dx)
		}
		dw := ad.apply1(name+"/filter", ops.DepthwiseBackpropFilter{Conv: op, FilterShape: w.Shape}, x, dy)
		ad.addGrad(w, dw)

	case ops.MatMul:
		if op.TransposeA || op.TransposeB {
			return fmt.Errorf("graph: autodiff of transposed MatMul %s is not supported; transpose explicitly", n.ID)
		}
		a, bb := in[0], in[1]
		if ad.needsGrad(a) {
			da := ad.apply1(name+"/a", ops.MatMul{TransposeB: true}, dy, bb)
			ad.addGrad(a, da)
		}
		if ad.needsGrad(bb) {
			if len(bb.Shape) == 2 && len(a.Shape) > 2 {
				return fmt.Errorf("graph: autodiff of %s: reshape activations to 2-D before a 2-D matmul", n.ID)
			}
			db := ad.apply1(name+"/b", ops.MatMul{TransposeA: true}, a, dy)
			ad.addGrad(bb, db)
		}

	case ops.BiasAdd:
		ad.addGrad(in[0], dy) // dx = dy, no kernel
		db := ad.apply1(name+"/bias", ops.BiasAddGrad{}, dy)
		ad.addGrad(in[1], db)

	case ops.BatchNorm:
		outs := ad.b.applyPhase(Backward, name, ops.BatchNormGrad{}, in[0], in[1], dy)
		for _, o := range outs {
			o.Gradient = true
		}
		ad.addGrad(in[0], outs[0])
		ad.addGrad(in[1], outs[1])
		ad.addGrad(in[2], outs[2])

	case ops.LayerNorm:
		outs := ad.b.applyPhase(Backward, name, ops.LayerNormGrad{}, in[0], in[1], dy)
		for _, o := range outs {
			o.Gradient = true
		}
		ad.addGrad(in[0], outs[0])
		ad.addGrad(in[1], outs[1])
		ad.addGrad(in[2], outs[2])

	case ops.Pointwise:
		switch op {
		case ops.Add:
			ad.addGrad(in[0], dy)
			ad.addGrad(in[1], dy)

		case ops.Sub:
			// d(a-b) = (dy, -dy).
			if ad.needsGrad(in[0]) {
				ad.addGrad(in[0], dy)
			}
			if ad.needsGrad(in[1]) {
				ad.addGrad(in[1], ad.apply1(name+"/neg", ops.Neg, dy))
			}

		case ops.Neg:
			dx := ad.apply1(name, ops.Neg, dy)
			ad.addGrad(in[0], dx)

		case ops.Mul:
			// d(a*b) = (dy*b, dy*a): both forward inputs are re-read in
			// backward, the gated-network analogue of conv feature-map reuse.
			if ad.needsGrad(in[0]) {
				ad.addGrad(in[0], ad.apply1(name+"/a", ops.Mul, dy, in[1]))
			}
			if ad.needsGrad(in[1]) {
				ad.addGrad(in[1], ad.apply1(name+"/b", ops.Mul, dy, in[0]))
			}

		default:
			rule, ok := activationGrads[op]
			if !ok {
				return ad.emitCustom(n, dys)
			}
			var args []*tensor.Tensor
			switch rule.reads {
			case readsInput:
				args = []*tensor.Tensor{in[0], dy}
			case readsOutput:
				args = []*tensor.Tensor{n.Outputs[0], dy}
			default:
				args = []*tensor.Tensor{dy}
			}
			ad.addGrad(in[0], ad.apply1(name, rule.grad, args...))
		}

	case ops.Pool:
		dx := ad.apply1(name, ops.PoolGrad{Pool: op}, in[0], n.Outputs[0], dy)
		ad.addGrad(in[0], dx)

	case ops.AddN:
		for _, x := range in {
			ad.addGrad(x, dy)
		}

	case ops.Concat:
		var off int64
		for _, x := range in {
			length := x.Shape[op.Dim]
			dx := ad.apply1(name+"/slice", ops.Slice{Dim: op.Dim, Start: off, Length: length}, dy)
			ad.addGrad(x, dx)
			off += length
		}

	case ops.Slice:
		// Grad of a slice is a zero-pad back to the input extent.
		rank := len(in[0].Shape)
		before := make([]int64, rank)
		after := make([]int64, rank)
		before[op.Dim] = op.Start
		after[op.Dim] = in[0].Shape[op.Dim] - op.Start - op.Length
		dx := ad.apply1(name, ops.Pad{Before: before, After: after}, dy)
		ad.addGrad(in[0], dx)

	case ops.Pad:
		// Grad of a pad slices the padding back off, one dim at a time.
		dx := dy
		for d := range op.Before {
			if op.Before[d] == 0 && op.After[d] == 0 {
				continue
			}
			dx = ad.apply1(fmt.Sprintf("%s/dim%d", name, d),
				ops.Slice{Dim: d, Start: op.Before[d], Length: in[0].Shape[d]}, dx)
		}
		ad.addGrad(in[0], dx)

	case ops.Reshape:
		dx := ad.apply1(name, ops.Reshape{To: in[0].Shape}, dy)
		ad.addGrad(in[0], dx)

	case ops.Transpose:
		dx := ad.apply1(name, ops.Transpose{Perm: inversePerm(op.Perm)}, dy)
		ad.addGrad(in[0], dx)

	case ops.Embedding:
		dt := ad.apply1(name, ops.EmbeddingGrad{TableShape: in[1].Shape}, in[0], dy)
		ad.addGrad(in[1], dt)

	case ops.SoftmaxCrossEntropy:
		dl := ad.apply1(name, ops.SoftmaxCrossEntropyGrad{}, in[0], in[1], dy)
		ad.addGrad(in[0], dl)

	default:
		return ad.emitCustom(n, dys)
	}
	return nil
}

// emitCustom runs the registered gradient rule of an op no built-in rule
// covers.
func (ad *autodiff) emitCustom(n *Node, dys []*tensor.Tensor) error {
	if f, ok := customGradient(n.Op.Name()); ok {
		return f(&GradientContext{ad: ad}, n, dys)
	}
	return fmt.Errorf("graph: no gradient rule for op %s (node %s)", n.Op.Name(), n.ID)
}
