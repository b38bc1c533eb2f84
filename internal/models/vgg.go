package models

import (
	"fmt"

	"capuchin/internal/graph"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// VGG16 builds the 16-layer VGG network (Simonyan & Zisserman): thirteen
// 3x3 convolutions with biases and ReLUs in five pooled stages, then three
// dense layers. Its few, enormous early activations (the first ReLU pair
// needs ~6 GB at the paper's batch 230, §6.3.1) make it the workload whose
// memory is hardest to optimize.
func VGG16(batch int64, opt graph.BuildOptions) (*graph.Graph, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("models: vgg16: batch %d must be positive", batch)
	}
	n := &net{b: graph.NewBuilder("vgg16")}
	x := n.b.Input("data", tensor.Shape{batch, 3, 224, 224}, tensor.Float32)

	stages := []struct {
		convs int
		ch    int64
	}{
		{2, 64}, {2, 128}, {3, 256}, {3, 512}, {3, 512},
	}
	for si, st := range stages {
		for ci := 0; ci < st.convs; ci++ {
			name := fmt.Sprintf("conv%d_%d", si+1, ci+1)
			x = n.convBias(name, x, st.ch, 3, 1, 1)
			x = n.relu(name, x)
		}
		x = n.maxPool(fmt.Sprintf("pool%d", si+1), x, 2, 2, 0)
	}

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
