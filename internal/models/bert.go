package models

import (
	"fmt"

	"capuchin/internal/graph"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// BERT architecture constants (BERT-Base, Devlin et al.).
const (
	bertLayers  = 12
	bertHidden  = 768
	bertHeads   = 12
	bertHeadDim = bertHidden / bertHeads
	bertFF      = 3072
	bertVocab   = 30522
	// bertSeqLen is the training sequence length. 384 (the SQuAD
	// fine-tuning length) gives the memory pressure the paper reports:
	// original TensorFlow tops out near batch 64 on a 16 GB card.
	bertSeqLen = 384
	// bertMaskLen approximates masked-LM prediction over ~15% of
	// positions; the LM head and loss run on this prefix.
	bertMaskLen = 56
)

// BERTBase builds a BERT-Base masked-LM training graph over synthetic
// token ids: embedding, twelve transformer encoder layers (multi-head
// self-attention with 1/sqrt(d) softmax, GELU feed-forward, residual
// layer norms) and an LM head over bertMaskLen positions.
func BERTBase(batch int64, opt graph.BuildOptions) (*graph.Graph, error) {
	return BERTBaseSeq(batch, bertSeqLen, opt)
}

// BERTBaseSeq builds BERT-Base at an explicit sequence length, the
// bucketed-padding regime of NLP training pipelines. The masked-LM head
// width scales with the sequence (~15% of positions, matching
// bertMaskLen at the default length).
func BERTBaseSeq(batch, seqLen int64, opt graph.BuildOptions) (*graph.Graph, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("models: bert: batch %d must be positive", batch)
	}
	if seqLen <= 0 {
		return nil, fmt.Errorf("models: bert: sequence length %d must be positive", seqLen)
	}
	maskLen := seqLen * bertMaskLen / bertSeqLen
	if maskLen < 1 {
		maskLen = 1
	}
	b := graph.NewBuilder("bert")

	ids := b.Input("ids", tensor.Shape{batch, seqLen}, tensor.Int32)
	table := b.Variable("embeddings", tensor.Shape{bertVocab, bertHidden})
	emb := b.Apply1("embed", ops.Embedding{}, ids, table)

	// Flatten to [batch*seq, hidden]; the token stream stays 2-D except
	// inside attention.
	x := b.Apply1("embed_flat", ops.Reshape{To: tensor.Shape{batch * seqLen, bertHidden}}, emb)
	x = layerNorm(b, "embed_ln", x)
	x = b.Apply1("embed_drop", ops.Dropout, x)

	for i := 0; i < bertLayers; i++ {
		x = encoderLayer(b, fmt.Sprintf("layer%d", i), x, batch, seqLen)
	}

	// Masked-LM head over the first maskLen positions.
	seq := b.Apply1("head_unflat", ops.Reshape{To: tensor.Shape{batch, seqLen, bertHidden}}, x)
	masked := b.Apply1("head_slice", ops.Slice{Dim: 1, Start: 0, Length: maskLen}, seq)
	flat := b.Apply1("head_flat", ops.Reshape{To: tensor.Shape{batch * maskLen, bertHidden}}, masked)
	lm := denseSeq(b, "lm", flat, bertVocab)
	labels := b.Input("labels", tensor.Shape{batch * maskLen, bertVocab}, tensor.Float32)
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, lm, labels)
	return b.Build(loss, opt)
}

// denseSeq is matmul+bias over a [tokens, features] activation.
func denseSeq(b *graph.Builder, name string, x *tensor.Tensor, units int64) *tensor.Tensor {
	w := b.Variable(name+"_w", tensor.Shape{x.Shape[1], units})
	bias := b.Variable(name+"_b", tensor.Shape{units})
	y := b.Apply1(name, ops.MatMul{}, x, w)
	return b.Apply1(name+"_bias", ops.BiasAdd{}, y, bias)
}

// layerNorm applies layer normalization over the hidden dimension.
func layerNorm(b *graph.Builder, name string, x *tensor.Tensor) *tensor.Tensor {
	h := x.Shape[len(x.Shape)-1]
	scale := b.Variable(name+"_scale", tensor.Shape{h})
	offset := b.Variable(name+"_offset", tensor.Shape{h})
	return b.Apply1(name, ops.LayerNorm{}, x, scale, offset)
}

// encoderLayer is one transformer block over a [batch*seq, hidden] stream.
func encoderLayer(b *graph.Builder, name string, x *tensor.Tensor, batch, seqLen int64) *tensor.Tensor {
	// Self-attention projections.
	q := denseSeq(b, name+"_q", x, bertHidden)
	k := denseSeq(b, name+"_k", x, bertHidden)
	v := denseSeq(b, name+"_v", x, bertHidden)

	toHeads := func(t *tensor.Tensor, tag string) *tensor.Tensor {
		r := b.Apply1(name+"_"+tag+"_split", ops.Reshape{To: tensor.Shape{batch, seqLen, bertHeads, bertHeadDim}}, t)
		return b.Apply1(name+"_"+tag+"_heads", ops.Transpose{Perm: []int{0, 2, 1, 3}}, r)
	}
	qh := toHeads(q, "q") // [B, heads, S, dh]
	kh := toHeads(k, "k")
	vh := toHeads(v, "v")

	kt := b.Apply1(name+"_k_t", ops.Transpose{Perm: []int{0, 1, 3, 2}}, kh) // [B, heads, dh, S]
	scores := b.Apply1(name+"_scores", ops.MatMul{}, qh, kt)                // [B, heads, S, S]
	probs := b.Apply1(name+"_softmax", ops.Softmax, scores)
	probs = b.Apply1(name+"_attn_drop", ops.Dropout, probs)
	ctx := b.Apply1(name+"_context", ops.MatMul{}, probs, vh) // [B, heads, S, dh]

	merged := b.Apply1(name+"_merge", ops.Transpose{Perm: []int{0, 2, 1, 3}}, ctx)
	flat := b.Apply1(name+"_ctx_flat", ops.Reshape{To: tensor.Shape{batch * seqLen, bertHidden}}, merged)

	attn := denseSeq(b, name+"_attn_out", flat, bertHidden)
	attn = b.Apply1(name+"_attn_out_drop", ops.Dropout, attn)
	res1 := b.Apply1(name+"_res1", ops.Add, attn, x)
	x1 := layerNorm(b, name+"_ln1", res1)

	// Feed-forward.
	ff := denseSeq(b, name+"_ff1", x1, bertFF)
	ff = b.Apply1(name+"_gelu", ops.GELU, ff)
	ff = denseSeq(b, name+"_ff2", ff, bertHidden)
	ff = b.Apply1(name+"_ff_drop", ops.Dropout, ff)
	res2 := b.Apply1(name+"_res2", ops.Add, ff, x1)
	return layerNorm(b, name+"_ln2", res2)
}
