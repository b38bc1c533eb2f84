package models

import (
	"fmt"

	"capuchin/internal/graph"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// MobileNetV2 builds Sandler et al.'s MobileNetV2: inverted residual
// blocks of expand-1x1 / depthwise-3x3 / project-1x1 convolutions. It
// extends the paper's workload table with the depthwise-separable family,
// whose memory-bound depthwise layers invert the usual "convolutions are
// expensive to recompute" heuristic — exactly the static-assumption trap
// the paper's §3.1 warns about.
func MobileNetV2(batch int64, opt graph.BuildOptions) (*graph.Graph, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("models: mobilenetv2: batch %d must be positive", batch)
	}
	n := &net{b: graph.NewBuilder("mobilenetv2")}
	x := n.b.Input("data", tensor.Shape{batch, 3, 224, 224}, tensor.Float32)

	x = n.convBNReLU("stem", x, 32, 3, 3, 2, 1, 1)

	// (expansion, output channels, repeats, first stride)
	blocks := []struct {
		t, c    int64
		repeats int
		stride  int64
	}{
		{1, 16, 1, 1},
		{6, 24, 2, 2},
		{6, 32, 3, 2},
		{6, 64, 4, 2},
		{6, 96, 3, 1},
		{6, 160, 3, 2},
		{6, 320, 1, 1},
	}
	for bi, blk := range blocks {
		for r := 0; r < blk.repeats; r++ {
			stride := int64(1)
			if r == 0 {
				stride = blk.stride
			}
			x = n.invertedResidual(fmt.Sprintf("ir%d_%d", bi+1, r+1), x, blk.t, blk.c, stride)
		}
	}

	x = n.convBNReLU("head", x, 1280, 1, 1, 1, 0, 0)
	x = n.globalAvgPool("pool", x)
	loss := n.classifier(x, batch, 1000)
	return n.b.Build(loss, opt)
}

// invertedResidual is the expand/depthwise/project block with a residual
// connection when shapes allow.
func (n *net) invertedResidual(name string, x *tensor.Tensor, expand, out, stride int64) *tensor.Tensor {
	in := x.Shape[1]
	h := x
	if expand != 1 {
		h = n.convBNReLU(name+"_expand", h, in*expand, 1, 1, 1, 0, 0)
	}
	h = n.depthwiseBNReLU(name+"_dw", h, 3, stride, 1)
	h = n.convBN(name+"_project", h, out, 1, 1, 1, 0, 0) // linear bottleneck: no ReLU
	if stride == 1 && in == out {
		h = n.b.Apply1(name+"_add", ops.Add, h, x)
	}
	return h
}

// depthwiseBNReLU is depthwise conv + batch norm + ReLU.
func (n *net) depthwiseBNReLU(name string, x *tensor.Tensor, k, stride, pad int64) *tensor.Tensor {
	c := x.Shape[1]
	w := n.b.Variable(name+"_w", tensor.Shape{c, 1, k, k})
	h := n.b.Apply1(name, ops.DepthwiseConv2D{StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}, x, w)
	scale := n.b.Variable(name+"_bn_scale", tensor.Shape{c})
	offset := n.b.Variable(name+"_bn_offset", tensor.Shape{c})
	h = n.b.Apply1(name+"_bn", ops.BatchNorm{}, h, scale, offset)
	return n.relu(name, h)
}
