package ops

import (
	"capuchin/internal/hw"
	"capuchin/internal/tensor"
)

// MatMul multiplies [..., M, K] by [..., K, N] with optional transposes of
// the last two dimensions. Leading dimensions (if any) are batch
// dimensions and must match or be absent on the second operand, covering
// both dense layers ([M,K]x[K,N]) and batched attention matmuls
// ([B,H,S,D]x[B,H,D,S]).
type MatMul struct {
	TransposeA, TransposeB bool
}

// Name implements Op.
func (MatMul) Name() string { return "MatMul" }

// matDims validates the operand shapes and returns batch, M, K, N.
func (m MatMul) matDims(in []tensor.Shape) (batch, mm, kk, nn int64, err error) {
	if e := arity("MatMul", in, 2); e != nil {
		return 0, 0, 0, 0, e
	}
	a, b := in[0], in[1]
	if len(a) < 2 || len(b) < 2 {
		return 0, 0, 0, 0, shapeError("MatMul", in, "operands must be at least 2-D")
	}
	am, ak := a[len(a)-2], a[len(a)-1]
	if m.TransposeA {
		am, ak = ak, am
	}
	bk, bn := b[len(b)-2], b[len(b)-1]
	if m.TransposeB {
		bk, bn = bn, bk
	}
	if ak != bk {
		return 0, 0, 0, 0, shapeError("MatMul", in, "inner dimension mismatch: %d vs %d", ak, bk)
	}
	batch = 1
	for _, d := range a[:len(a)-2] {
		batch *= d
	}
	bBatch := int64(1)
	for _, d := range b[:len(b)-2] {
		bBatch *= d
	}
	if len(b) > 2 && bBatch != batch {
		return 0, 0, 0, 0, shapeError("MatMul", in, "batch mismatch: %d vs %d", batch, bBatch)
	}
	return batch, am, ak, bn, nil
}

// InferShapes implements Op.
func (m MatMul) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	_, mm, _, nn, err := m.matDims(in)
	if err != nil {
		return nil, err
	}
	a := in[0]
	out := make(tensor.Shape, 0, len(a))
	out = append(out, a[:len(a)-2]...)
	out = append(out, mm, nn)
	return []tensor.Shape{out}, nil
}

// flops is the multiply's work: 2*batch*M*K*N.
func (m MatMul) flops(in []tensor.Shape) float64 {
	batch, mm, kk, nn, err := m.matDims(in)
	if err != nil {
		return 0
	}
	return 2 * float64(batch*mm*kk*nn)
}

// Algorithms implements Op.
func (m MatMul) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []Algorithm) []Algorithm {
	batch, mm, _, nn, err := m.matDims(in)
	if err != nil {
		return single(dst, "invalid", dev.KernelLaunch)
	}
	traffic := sumBytes(in[0], in[1]) + batch*mm*nn*4
	return single(dst, "gemm", roofline(dev, m.flops(in), effMatMul, halfSatMatMul, traffic))
}
