package models

import (
	"fmt"

	"capuchin/internal/graph"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// GRU architecture constants: a two-layer gated recurrent unit language
// model, the second recurrent family alongside LSTM.
const (
	gruLayers = 2
	gruHidden = 1024
	gruEmbed  = 512
	gruSteps  = 96
	gruVocab  = 10000
)

// GRU builds the unrolled two-layer GRU language model. Each cell computes
// r,z = sigmoid gates, n = tanh(Wx + U(r*h)), and interpolates
// h' = n + z*(h - n) — three elementwise products per step whose gradients
// re-read the gate activations, giving memory managers the same long-gap
// reuse pattern as LSTM with a different op mix.
func GRU(batch int64, opt graph.BuildOptions) (*graph.Graph, error) {
	return GRUSeq(batch, gruSteps, opt)
}

// GRUSeq builds the GRU unrolled over an explicit number of timesteps.
func GRUSeq(batch, steps int64, opt graph.BuildOptions) (*graph.Graph, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("models: gru: batch %d must be positive", batch)
	}
	if steps <= 0 {
		return nil, fmt.Errorf("models: gru: steps %d must be positive", steps)
	}
	b := graph.NewBuilder("gru")

	ids := b.Input("ids", tensor.Shape{batch, steps}, tensor.Int32)
	table := b.Variable("embeddings", tensor.Shape{gruVocab, gruEmbed})
	emb := b.Apply1("embed", ops.Embedding{}, ids, table)

	type cellWeights struct {
		wxGates, whGates *tensor.Tensor // r,z projections (2H wide)
		wxCand, whCand   *tensor.Tensor // candidate projections (H wide)
		bGates, bCand    *tensor.Tensor
	}
	weights := make([]cellWeights, gruLayers)
	for l := 0; l < gruLayers; l++ {
		inDim := int64(gruEmbed)
		if l > 0 {
			inDim = gruHidden
		}
		weights[l] = cellWeights{
			wxGates: b.Variable(fmt.Sprintf("l%d_wxg", l), tensor.Shape{inDim, 2 * gruHidden}),
			whGates: b.Variable(fmt.Sprintf("l%d_whg", l), tensor.Shape{gruHidden, 2 * gruHidden}),
			wxCand:  b.Variable(fmt.Sprintf("l%d_wxc", l), tensor.Shape{inDim, gruHidden}),
			whCand:  b.Variable(fmt.Sprintf("l%d_whc", l), tensor.Shape{gruHidden, gruHidden}),
			bGates:  b.Variable(fmt.Sprintf("l%d_bg", l), tensor.Shape{2 * gruHidden}),
			bCand:   b.Variable(fmt.Sprintf("l%d_bc", l), tensor.Shape{gruHidden}),
		}
	}

	h := make([]*tensor.Tensor, gruLayers)
	for l := 0; l < gruLayers; l++ {
		h[l] = b.Input(fmt.Sprintf("h0_%d", l), tensor.Shape{batch, gruHidden}, tensor.Float32)
	}

	var lastTop *tensor.Tensor
	for t := int64(0); t < steps; t++ {
		x := b.Apply1(fmt.Sprintf("x_t%d", t), ops.Slice{Dim: 1, Start: t, Length: 1}, emb)
		xt := b.Apply1(fmt.Sprintf("x_t%d_flat", t), ops.Reshape{To: tensor.Shape{batch, gruEmbed}}, x)
		input := xt
		for l := 0; l < gruLayers; l++ {
			h[l] = gruCell(b, fmt.Sprintf("l%d_t%d", l, t), input, h[l], weights[l])
			input = h[l]
		}
		lastTop = input
	}

	wOut := b.Variable("head_w", tensor.Shape{gruHidden, gruVocab})
	bOut := b.Variable("head_b", tensor.Shape{gruVocab})
	logits := b.Apply1("head", ops.MatMul{}, lastTop, wOut)
	logits = b.Apply1("head_bias", ops.BiasAdd{}, logits, bOut)
	labels := b.Input("labels", tensor.Shape{batch, gruVocab}, tensor.Float32)
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, logits, labels)
	return b.Build(loss, opt)
}

// gruCell is one GRU step over a [batch, hidden] state.
func gruCell(b *graph.Builder, name string, x, h *tensor.Tensor, w struct {
	wxGates, whGates *tensor.Tensor
	wxCand, whCand   *tensor.Tensor
	bGates, bCand    *tensor.Tensor
}) *tensor.Tensor {
	// Fused r,z gates.
	gx := b.Apply1(name+"_gx", ops.MatMul{}, x, w.wxGates)
	gh := b.Apply1(name+"_gh", ops.MatMul{}, h, w.whGates)
	gates := b.Apply1(name+"_gsum", ops.Add, gx, gh)
	gates = b.Apply1(name+"_gbias", ops.BiasAdd{}, gates, w.bGates)
	r := b.Apply1(name+"_r", ops.Sigmoid,
		b.Apply1(name+"_rs", ops.Slice{Dim: 1, Start: 0, Length: gruHidden}, gates))
	z := b.Apply1(name+"_z", ops.Sigmoid,
		b.Apply1(name+"_zs", ops.Slice{Dim: 1, Start: gruHidden, Length: gruHidden}, gates))

	// Candidate state from the reset-gated history.
	rh := b.Apply1(name+"_rh", ops.Mul, r, h)
	cx := b.Apply1(name+"_cx", ops.MatMul{}, x, w.wxCand)
	ch := b.Apply1(name+"_ch", ops.MatMul{}, rh, w.whCand)
	cand := b.Apply1(name+"_csum", ops.Add, cx, ch)
	cand = b.Apply1(name+"_cbias", ops.BiasAdd{}, cand, w.bCand)
	n := b.Apply1(name+"_n", ops.Tanh, cand)

	// h' = n + z*(h - n).
	diff := b.Apply1(name+"_diff", ops.Sub, h, n)
	scaled := b.Apply1(name+"_zdiff", ops.Mul, z, diff)
	return b.Apply1(name+"_h", ops.Add, n, scaled)
}
