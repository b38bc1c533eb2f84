package ops

import (
	"capuchin/internal/hw"
	"capuchin/internal/tensor"
)

// Embedding gathers rows of a [vocab, hidden] table for [batch, seq] int
// ids, producing [batch, seq, hidden].
type Embedding struct{}

// Name implements Op.
func (Embedding) Name() string { return "Embedding" }

// InferShapes implements Op.
func (e Embedding) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := e.check(in); err != nil {
		return nil, err
	}
	ids, table := in[0], in[1]
	return []tensor.Shape{{ids[0], ids[1], table[1]}}, nil
}

// check validates Embedding's input shapes.
func (Embedding) check(in []tensor.Shape) error {
	if err := arity("Embedding", in, 2); err != nil {
		return err
	}
	if len(in[0]) != 2 || len(in[1]) != 2 {
		return shapeError("Embedding", in, "want [batch,seq] ids and [vocab,hidden] table")
	}
	return nil
}

// Algorithms implements Op.
func (e Embedding) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if e.check(in) != nil {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	ids, table := in[0], in[1]
	return memBound(dst, dev, "gather", 2*4*ids[0]*ids[1]*table[1])
}

// EmbeddingGrad scatters dy back into a table-shaped gradient from
// [ids, dy].
type EmbeddingGrad struct {
	TableShape tensor.Shape
}

// Name implements Op.
func (EmbeddingGrad) Name() string { return "EmbeddingGrad" }

// InferShapes implements Op.
func (g EmbeddingGrad) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("EmbeddingGrad", in, 2); err != nil {
		return nil, err
	}
	return []tensor.Shape{g.TableShape}, nil
}

// Algorithms implements Op.
func (g EmbeddingGrad) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) != 2 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	return memBound(dst, dev, "scatter", bytesOf(in[1])+bytesOf(g.TableShape))
}

// SoftmaxCrossEntropy computes the scalar training loss from
// [logits, labels], fusing softmax and cross-entropy like TensorFlow's
// fused op.
type SoftmaxCrossEntropy struct{}

// Name implements Op.
func (SoftmaxCrossEntropy) Name() string { return "SoftmaxCrossEntropy" }

// InferShapes implements Op.
func (SoftmaxCrossEntropy) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("SoftmaxCrossEntropy", in, 2); err != nil {
		return nil, err
	}
	if len(in[0]) < 2 {
		return nil, shapeError("SoftmaxCrossEntropy", in, "logits must be at least 2-D")
	}
	return []tensor.Shape{{}}, nil // scalar loss
}

// Algorithms implements Op.
func (SoftmaxCrossEntropy) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) != 2 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	return memBound(dst, dev, "norm", 2*bytesOf(in[0]))
}

// SoftmaxCrossEntropyGrad computes dlogits from [logits, labels, dloss].
type SoftmaxCrossEntropyGrad struct{}

// Name implements Op.
func (SoftmaxCrossEntropyGrad) Name() string { return "SoftmaxCrossEntropyGrad" }

// InferShapes implements Op.
func (SoftmaxCrossEntropyGrad) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := arity("SoftmaxCrossEntropyGrad", in, 3); err != nil {
		return nil, err
	}
	return []tensor.Shape{in[0]}, nil
}

// Algorithms implements Op.
func (SoftmaxCrossEntropyGrad) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	if len(in) != 3 {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	return memBound(dst, dev, "norm", 3*bytesOf(in[0]))
}
