package models

import (
	"fmt"

	"capuchin/internal/graph"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// AlexNet builds Krizhevsky's AlexNet, the workload the vDNN baseline was
// originally designed around: five convolutions (the first a huge
// 11x11/4), three pooled stages, and three enormous dense layers that hold
// most of the 61M parameters. Its shallow shape makes per-layer swap
// overlap easy — the regime where static layer-wise policies look best —
// so it is a useful sanity anchor for the baselines.
func AlexNet(batch int64, opt graph.BuildOptions) (*graph.Graph, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("models: alexnet: batch %d must be positive", batch)
	}
	n := &net{b: graph.NewBuilder("alexnet")}
	x := n.b.Input("data", tensor.Shape{batch, 3, 227, 227}, tensor.Float32)

	x = n.convBias("conv1", x, 96, 11, 4, 0) // 55x55
	x = n.relu("conv1", x)
	x = n.maxPool("pool1", x, 3, 2, 0) // 27x27
	x = n.convBias("conv2", x, 256, 5, 1, 2)
	x = n.relu("conv2", x)
	x = n.maxPool("pool2", x, 3, 2, 0) // 13x13
	x = n.convBias("conv3", x, 384, 3, 1, 1)
	x = n.relu("conv3", x)
	x = n.convBias("conv4", x, 384, 3, 1, 1)
	x = n.relu("conv4", x)
	x = n.convBias("conv5", x, 256, 3, 1, 1)
	x = n.relu("conv5", x)
	x = n.maxPool("pool5", x, 3, 2, 0) // 6x6

	flat := n.b.Apply1("flatten", ops.Reshape{To: tensor.Shape{batch, x.Shape.Elems() / batch}}, x)
	h := n.relu("fc6", n.dense("fc6", flat, 4096))
	h = n.b.Apply1("fc6_drop", ops.Dropout, h)
	h = n.relu("fc7", n.dense("fc7", h, 4096))
	h = n.b.Apply1("fc7_drop", ops.Dropout, h)
	logits := n.dense("fc8", h, 1000)
	labels := n.b.Input("labels", tensor.Shape{batch, 1000}, tensor.Float32)
	loss := n.b.Apply1("loss", ops.SoftmaxCrossEntropy{}, logits, labels)
	return n.b.Build(loss, opt)
}
