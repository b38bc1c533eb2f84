package models

import (
	"fmt"

	"capuchin/internal/graph"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// resnet builds a bottleneck ResNet (He et al.) with the given block
// counts per stage: [3,4,6,3] for ResNet-50 and [3,8,36,3] for ResNet-152.
func resnet(name string, blocks [4]int, batch int64, opt graph.BuildOptions) (*graph.Graph, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("models: %s: batch %d must be positive", name, batch)
	}
	n := &net{b: graph.NewBuilder(name)}
	x := n.b.Input("data", tensor.Shape{batch, 3, 224, 224}, tensor.Float32)

	x = n.convBNReLU("conv1", x, 64, 7, 7, 2, 3, 3)
	x = n.maxPool("pool1", x, 3, 2, 1)

	mid := int64(64)
	for stage, count := range blocks {
		out := mid * 4
		for blk := 0; blk < count; blk++ {
			stride := int64(1)
			if blk == 0 && stage > 0 {
				stride = 2
			}
			x = n.bottleneck(fmt.Sprintf("res%d_%d", stage+2, blk+1), x, mid, out, stride)
		}
		mid *= 2
	}

	x = n.globalAvgPool("pool5", x)
	loss := n.classifier(x, batch, 1000)
	return n.b.Build(loss, opt)
}

// bottleneck is the 1x1 -> 3x3 -> 1x1 residual block with a projection
// shortcut when the shape changes.
func (n *net) bottleneck(name string, x *tensor.Tensor, mid, out, stride int64) *tensor.Tensor {
	shortcut := x
	if x.Shape[1] != out || stride != 1 {
		shortcut = n.convBN(name+"_proj", x, out, 1, 1, stride, 0, 0)
	}
	h := n.convBNReLU(name+"_a", x, mid, 1, 1, 1, 0, 0)
	h = n.convBNReLU(name+"_b", h, mid, 3, 3, stride, 1, 1)
	h = n.convBN(name+"_c", h, out, 1, 1, 1, 0, 0)
	sum := n.b.Apply1(name+"_add", ops.Add, h, shortcut)
	return n.relu(name, sum)
}

// ResNet50 builds the 50-layer bottleneck ResNet.
func ResNet50(batch int64, opt graph.BuildOptions) (*graph.Graph, error) {
	return resnet("resnet50", [4]int{3, 4, 6, 3}, batch, opt)
}

// ResNet152 builds the 152-layer bottleneck ResNet.
func ResNet152(batch int64, opt graph.BuildOptions) (*graph.Graph, error) {
	return resnet("resnet152", [4]int{3, 8, 36, 3}, batch, opt)
}
