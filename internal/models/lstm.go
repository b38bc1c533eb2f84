package models

import (
	"fmt"

	"capuchin/internal/graph"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// LSTM architecture constants: a two-layer speech/NLP-style recurrent
// model. The paper's workload table stops at CNNs and BERT but notes that
// "other kinds of workloads such as speech, NLP ... exhibit a similar
// pattern" (§3.2); this model extends the zoo along that axis. An
// unrolled LSTM is the pathological case for static layer-type policies —
// every timestep is the same handful of matmuls and gates — while
// Capuchin sees only tensors and timestamps.
const (
	lstmLayers = 2
	lstmHidden = 1024
	lstmEmbed  = 512
	lstmSteps  = 96
	lstmVocab  = 10000
)

// LSTM builds the unrolled two-layer LSTM language model.
func LSTM(batch int64, opt graph.BuildOptions) (*graph.Graph, error) {
	return LSTMSeq(batch, lstmSteps, opt)
}

// LSTMSeq builds the LSTM unrolled over an explicit number of timesteps
// — the sequence-length axis of the recurrent family. Shorter unrolls
// shrink both the graph and its live-tensor footprint, which is exactly
// the shape drift bucketed NLP batches produce.
func LSTMSeq(batch, steps int64, opt graph.BuildOptions) (*graph.Graph, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("models: lstm: batch %d must be positive", batch)
	}
	if steps <= 0 {
		return nil, fmt.Errorf("models: lstm: steps %d must be positive", steps)
	}
	b := graph.NewBuilder("lstm")

	ids := b.Input("ids", tensor.Shape{batch, steps}, tensor.Int32)
	table := b.Variable("embeddings", tensor.Shape{lstmVocab, lstmEmbed})
	emb := b.Apply1("embed", ops.Embedding{}, ids, table) // [B, T, E]

	// Per-layer recurrent weights, shared across timesteps (the tensors
	// Capuchin must never evict: they are persistent and hot).
	type cellWeights struct {
		wx, wh *tensor.Tensor // input and recurrent projections to 4 gates
		bias   *tensor.Tensor
	}
	weights := make([]cellWeights, lstmLayers)
	for l := 0; l < lstmLayers; l++ {
		inDim := int64(lstmEmbed)
		if l > 0 {
			inDim = lstmHidden
		}
		weights[l] = cellWeights{
			wx:   b.Variable(fmt.Sprintf("l%d_wx", l), tensor.Shape{inDim, 4 * lstmHidden}),
			wh:   b.Variable(fmt.Sprintf("l%d_wh", l), tensor.Shape{lstmHidden, 4 * lstmHidden}),
			bias: b.Variable(fmt.Sprintf("l%d_b", l), tensor.Shape{4 * lstmHidden}),
		}
	}

	// Initial states.
	h := make([]*tensor.Tensor, lstmLayers)
	c := make([]*tensor.Tensor, lstmLayers)
	for l := 0; l < lstmLayers; l++ {
		h[l] = b.Input(fmt.Sprintf("h0_%d", l), tensor.Shape{batch, lstmHidden}, tensor.Float32)
		c[l] = b.Input(fmt.Sprintf("c0_%d", l), tensor.Shape{batch, lstmHidden}, tensor.Float32)
	}

	// Unroll.
	var lastTop *tensor.Tensor
	for t := int64(0); t < steps; t++ {
		x := b.Apply1(fmt.Sprintf("x_t%d", t),
			ops.Slice{Dim: 1, Start: t, Length: 1}, emb) // [B,1,E]
		xt := b.Apply1(fmt.Sprintf("x_t%d_flat", t),
			ops.Reshape{To: tensor.Shape{batch, lstmEmbed}}, x)
		input := xt
		for l := 0; l < lstmLayers; l++ {
			name := fmt.Sprintf("l%d_t%d", l, t)
			h[l], c[l] = lstmCell(b, name, input, h[l], c[l], weights[l])
			input = h[l]
		}
		lastTop = input
	}

	// Next-token head on the final state.
	wOut := b.Variable("head_w", tensor.Shape{lstmHidden, lstmVocab})
	bOut := b.Variable("head_b", tensor.Shape{lstmVocab})
	logits := b.Apply1("head", ops.MatMul{}, lastTop, wOut)
	logits = b.Apply1("head_bias", ops.BiasAdd{}, logits, bOut)
	labels := b.Input("labels", tensor.Shape{batch, lstmVocab}, tensor.Float32)
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, logits, labels)
	return b.Build(loss, opt)
}

// lstmCell is one LSTM step: gates = x*Wx + h*Wh + b split four ways,
// c' = f*c + i*g, h' = o*tanh(c').
func lstmCell(b *graph.Builder, name string, x, h, c *tensor.Tensor, w struct {
	wx, wh *tensor.Tensor
	bias   *tensor.Tensor
}) (hOut, cOut *tensor.Tensor) {
	px := b.Apply1(name+"_px", ops.MatMul{}, x, w.wx)
	ph := b.Apply1(name+"_ph", ops.MatMul{}, h, w.wh)
	gates := b.Apply1(name+"_sum", ops.Add, px, ph)
	gates = b.Apply1(name+"_bias", ops.BiasAdd{}, gates, w.bias)

	slice := func(i int64, tag string) *tensor.Tensor {
		return b.Apply1(name+"_"+tag,
			ops.Slice{Dim: 1, Start: i * lstmHidden, Length: lstmHidden}, gates)
	}
	in := b.Apply1(name+"_i", ops.Sigmoid, slice(0, "gi"))
	f := b.Apply1(name+"_f", ops.Sigmoid, slice(1, "gf"))
	g := b.Apply1(name+"_g", ops.Tanh, slice(2, "gg"))
	o := b.Apply1(name+"_o", ops.Sigmoid, slice(3, "go"))

	keep := b.Apply1(name+"_keep", ops.Mul, f, c)
	write := b.Apply1(name+"_write", ops.Mul, in, g)
	cOut = b.Apply1(name+"_c", ops.Add, keep, write)
	ct := b.Apply1(name+"_ct", ops.Tanh, cOut)
	hOut = b.Apply1(name+"_h", ops.Mul, o, ct)
	return hOut, cOut
}
