package models

import (
	"fmt"

	"capuchin/internal/graph"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// concat joins branch outputs on the channel dimension.
func (n *net) concat(name string, branches ...*tensor.Tensor) *tensor.Tensor {
	return n.b.Apply1(name, ops.Concat{Dim: 1}, branches...)
}

// InceptionV3 builds Szegedy et al.'s Inception-v3 (299x299 input): the
// factorized-convolution stem, three 35x35 Inception-A blocks, a grid
// reduction, four 17x17 Inception-B blocks with 1x7/7x1 factorization,
// another reduction, and two 8x8 Inception-C blocks — 94 convolutions
// whose execution times span the ~37x range of the paper's Figure 2.
func InceptionV3(batch int64, opt graph.BuildOptions) (*graph.Graph, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("models: inceptionv3: batch %d must be positive", batch)
	}
	n := &net{b: graph.NewBuilder("inceptionv3")}
	x := n.b.Input("data", tensor.Shape{batch, 3, 299, 299}, tensor.Float32)

	// Stem.
	x = n.convBNReLU("stem1", x, 32, 3, 3, 2, 0, 0) // 149
	x = n.convBNReLU("stem2", x, 32, 3, 3, 1, 0, 0) // 147
	x = n.convBNReLU("stem3", x, 64, 3, 3, 1, 1, 1) // 147
	x = n.maxPool("stem_pool1", x, 3, 2, 0)         // 73
	x = n.convBNReLU("stem4", x, 80, 1, 1, 1, 0, 0)
	x = n.convBNReLU("stem5", x, 192, 3, 3, 1, 0, 0) // 71
	x = n.maxPool("stem_pool2", x, 3, 2, 0)          // 35

	// 3x Inception-A at 35x35.
	for i, proj := range []int64{32, 64, 64} {
		x = n.inceptionA(fmt.Sprintf("mixedA%d", i), x, proj)
	}
	x = n.reductionA("reduceA", x, 64, 96)

	// 4x Inception-B at 17x17 with growing 7x7-factorized channels.
	for i, c := range []int64{128, 160, 160, 192} {
		x = n.inceptionB(fmt.Sprintf("mixedB%d", i), x, c)
	}
	x = n.reductionBv3("reduceB", x)

	// 2x Inception-C at 8x8.
	for i := 0; i < 2; i++ {
		x = n.inceptionC(fmt.Sprintf("mixedC%d", i), x, 448)
	}

	x = n.globalAvgPool("pool", x)
	x = n.b.Apply1("dropout", ops.Dropout, x)
	loss := n.classifier(x, batch, 1000)
	return n.b.Build(loss, opt)
}

// inceptionA is the 35x35 module: 1x1, 5x5, double-3x3 and pooled-1x1
// branches.
func (n *net) inceptionA(name string, x *tensor.Tensor, poolProj int64) *tensor.Tensor {
	b1 := n.convBNReLU(name+"_1x1", x, 64, 1, 1, 1, 0, 0)
	b2 := n.convBNReLU(name+"_5x5a", x, 48, 1, 1, 1, 0, 0)
	b2 = n.convBNReLU(name+"_5x5b", b2, 64, 5, 5, 1, 2, 2)
	b3 := n.convBNReLU(name+"_3x3a", x, 64, 1, 1, 1, 0, 0)
	b3 = n.convBNReLU(name+"_3x3b", b3, 96, 3, 3, 1, 1, 1)
	b3 = n.convBNReLU(name+"_3x3c", b3, 96, 3, 3, 1, 1, 1)
	b4 := n.avgPool(name+"_pool", x, 3, 1, 1)
	b4 = n.convBNReLU(name+"_proj", b4, poolProj, 1, 1, 1, 0, 0)
	return n.concat(name, b1, b2, b3, b4)
}

// reductionA halves the grid: strided 3x3, strided double-3x3 and maxpool.
func (n *net) reductionA(name string, x *tensor.Tensor, mid, out int64) *tensor.Tensor {
	b1 := n.convBNReLU(name+"_3x3", x, 384, 3, 3, 2, 0, 0)
	b2 := n.convBNReLU(name+"_dbl_a", x, mid, 1, 1, 1, 0, 0)
	b2 = n.convBNReLU(name+"_dbl_b", b2, out, 3, 3, 1, 1, 1)
	b2 = n.convBNReLU(name+"_dbl_c", b2, out, 3, 3, 2, 0, 0)
	b3 := n.maxPool(name+"_pool", x, 3, 2, 0)
	return n.concat(name, b1, b2, b3)
}

// inceptionB is the 17x17 module with 1x7/7x1 factorized convolutions.
func (n *net) inceptionB(name string, x *tensor.Tensor, c int64) *tensor.Tensor {
	b1 := n.convBNReLU(name+"_1x1", x, 192, 1, 1, 1, 0, 0)
	b2 := n.convBNReLU(name+"_7x7a", x, c, 1, 1, 1, 0, 0)
	b2 = n.convBNReLU(name+"_7x7b", b2, c, 1, 7, 1, 0, 3)
	b2 = n.convBNReLU(name+"_7x7c", b2, 192, 7, 1, 1, 3, 0)
	b3 := n.convBNReLU(name+"_dbl7a", x, c, 1, 1, 1, 0, 0)
	b3 = n.convBNReLU(name+"_dbl7b", b3, c, 7, 1, 1, 3, 0)
	b3 = n.convBNReLU(name+"_dbl7c", b3, c, 1, 7, 1, 0, 3)
	b3 = n.convBNReLU(name+"_dbl7d", b3, c, 7, 1, 1, 3, 0)
	b3 = n.convBNReLU(name+"_dbl7e", b3, 192, 1, 7, 1, 0, 3)
	b4 := n.avgPool(name+"_pool", x, 3, 1, 1)
	b4 = n.convBNReLU(name+"_proj", b4, 192, 1, 1, 1, 0, 0)
	return n.concat(name, b1, b2, b3, b4)
}

// reductionBv3 is Inception-v3's second grid reduction.
func (n *net) reductionBv3(name string, x *tensor.Tensor) *tensor.Tensor {
	b1 := n.convBNReLU(name+"_a1", x, 192, 1, 1, 1, 0, 0)
	b1 = n.convBNReLU(name+"_a2", b1, 320, 3, 3, 2, 0, 0)
	b2 := n.convBNReLU(name+"_b1", x, 192, 1, 1, 1, 0, 0)
	b2 = n.convBNReLU(name+"_b2", b2, 192, 1, 7, 1, 0, 3)
	b2 = n.convBNReLU(name+"_b3", b2, 192, 7, 1, 1, 3, 0)
	b2 = n.convBNReLU(name+"_b4", b2, 192, 3, 3, 2, 0, 0)
	b3 := n.maxPool(name+"_pool", x, 3, 2, 0)
	return n.concat(name, b1, b2, b3)
}

// inceptionC is the 8x8 module with split 1x3/3x1 branches.
func (n *net) inceptionC(name string, x *tensor.Tensor, dblIn int64) *tensor.Tensor {
	b1 := n.convBNReLU(name+"_1x1", x, 320, 1, 1, 1, 0, 0)
	b2 := n.convBNReLU(name+"_3x3", x, 384, 1, 1, 1, 0, 0)
	b2a := n.convBNReLU(name+"_3x3a", b2, 384, 1, 3, 1, 0, 1)
	b2b := n.convBNReLU(name+"_3x3b", b2, 384, 3, 1, 1, 1, 0)
	b3 := n.convBNReLU(name+"_dbl1", x, dblIn, 1, 1, 1, 0, 0)
	b3 = n.convBNReLU(name+"_dbl2", b3, 384, 3, 3, 1, 1, 1)
	b3a := n.convBNReLU(name+"_dbl3a", b3, 384, 1, 3, 1, 0, 1)
	b3b := n.convBNReLU(name+"_dbl3b", b3, 384, 3, 1, 1, 1, 0)
	b4 := n.avgPool(name+"_pool", x, 3, 1, 1)
	b4 = n.convBNReLU(name+"_proj", b4, 192, 1, 1, 1, 0, 0)
	return n.concat(name, b1, b2a, b2b, b3a, b3b, b4)
}

// InceptionV4 builds Szegedy et al.'s Inception-v4: a deeper dual-branch
// stem and 4/7/3 Inception-A/B/C blocks.
func InceptionV4(batch int64, opt graph.BuildOptions) (*graph.Graph, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("models: inceptionv4: batch %d must be positive", batch)
	}
	n := &net{b: graph.NewBuilder("inceptionv4")}
	x := n.b.Input("data", tensor.Shape{batch, 3, 299, 299}, tensor.Float32)

	// Stem with dual-branch joins.
	x = n.convBNReLU("stem1", x, 32, 3, 3, 2, 0, 0) // 149
	x = n.convBNReLU("stem2", x, 32, 3, 3, 1, 0, 0) // 147
	x = n.convBNReLU("stem3", x, 64, 3, 3, 1, 1, 1)
	p1 := n.maxPool("stem_pool1", x, 3, 2, 0)               // 73
	c1 := n.convBNReLU("stem_conv1", x, 96, 3, 3, 2, 0, 0)  // 73
	x = n.concat("stem_mix1", p1, c1)                       // 160
	a := n.convBNReLU("stem_a1", x, 64, 1, 1, 1, 0, 0)      //
	a = n.convBNReLU("stem_a2", a, 96, 3, 3, 1, 0, 0)       // 71
	bb := n.convBNReLU("stem_b1", x, 64, 1, 1, 1, 0, 0)     //
	bb = n.convBNReLU("stem_b2", bb, 64, 1, 7, 1, 0, 3)     //
	bb = n.convBNReLU("stem_b3", bb, 64, 7, 1, 1, 3, 0)     //
	bb = n.convBNReLU("stem_b4", bb, 96, 3, 3, 1, 0, 0)     // 71
	x = n.concat("stem_mix2", a, bb)                        // 192
	c2 := n.convBNReLU("stem_conv2", x, 192, 3, 3, 2, 0, 0) // 35
	p2 := n.maxPool("stem_pool2", x, 3, 2, 0)               // 35
	x = n.concat("stem_mix3", c2, p2)                       // 384

	for i := 0; i < 4; i++ {
		x = n.inceptionA4(fmt.Sprintf("mixedA%d", i), x)
	}
	x = n.reductionA("reduceA", x, 192, 224)

	for i := 0; i < 7; i++ {
		x = n.inceptionB4(fmt.Sprintf("mixedB%d", i), x)
	}
	x = n.reductionBv4("reduceB", x)

	for i := 0; i < 3; i++ {
		x = n.inceptionC4(fmt.Sprintf("mixedC%d", i), x)
	}

	x = n.globalAvgPool("pool", x)
	x = n.b.Apply1("dropout", ops.Dropout, x)
	loss := n.classifier(x, batch, 1000)
	return n.b.Build(loss, opt)
}

func (n *net) inceptionA4(name string, x *tensor.Tensor) *tensor.Tensor {
	b1 := n.convBNReLU(name+"_1x1", x, 96, 1, 1, 1, 0, 0)
	b2 := n.convBNReLU(name+"_3x3a", x, 64, 1, 1, 1, 0, 0)
	b2 = n.convBNReLU(name+"_3x3b", b2, 96, 3, 3, 1, 1, 1)
	b3 := n.convBNReLU(name+"_dbl_a", x, 64, 1, 1, 1, 0, 0)
	b3 = n.convBNReLU(name+"_dbl_b", b3, 96, 3, 3, 1, 1, 1)
	b3 = n.convBNReLU(name+"_dbl_c", b3, 96, 3, 3, 1, 1, 1)
	b4 := n.avgPool(name+"_pool", x, 3, 1, 1)
	b4 = n.convBNReLU(name+"_proj", b4, 96, 1, 1, 1, 0, 0)
	return n.concat(name, b1, b2, b3, b4)
}

func (n *net) inceptionB4(name string, x *tensor.Tensor) *tensor.Tensor {
	b1 := n.convBNReLU(name+"_1x1", x, 384, 1, 1, 1, 0, 0)
	b2 := n.convBNReLU(name+"_7x7a", x, 192, 1, 1, 1, 0, 0)
	b2 = n.convBNReLU(name+"_7x7b", b2, 224, 1, 7, 1, 0, 3)
	b2 = n.convBNReLU(name+"_7x7c", b2, 256, 7, 1, 1, 3, 0)
	b3 := n.convBNReLU(name+"_dbl7a", x, 192, 1, 1, 1, 0, 0)
	b3 = n.convBNReLU(name+"_dbl7b", b3, 192, 7, 1, 1, 3, 0)
	b3 = n.convBNReLU(name+"_dbl7c", b3, 224, 1, 7, 1, 0, 3)
	b3 = n.convBNReLU(name+"_dbl7d", b3, 224, 7, 1, 1, 3, 0)
	b3 = n.convBNReLU(name+"_dbl7e", b3, 256, 1, 7, 1, 0, 3)
	b4 := n.avgPool(name+"_pool", x, 3, 1, 1)
	b4 = n.convBNReLU(name+"_proj", b4, 128, 1, 1, 1, 0, 0)
	return n.concat(name, b1, b2, b3, b4)
}

func (n *net) reductionBv4(name string, x *tensor.Tensor) *tensor.Tensor {
	b1 := n.convBNReLU(name+"_a1", x, 192, 1, 1, 1, 0, 0)
	b1 = n.convBNReLU(name+"_a2", b1, 192, 3, 3, 2, 0, 0)
	b2 := n.convBNReLU(name+"_b1", x, 256, 1, 1, 1, 0, 0)
	b2 = n.convBNReLU(name+"_b2", b2, 256, 1, 7, 1, 0, 3)
	b2 = n.convBNReLU(name+"_b3", b2, 320, 7, 1, 1, 3, 0)
	b2 = n.convBNReLU(name+"_b4", b2, 320, 3, 3, 2, 0, 0)
	b3 := n.maxPool(name+"_pool", x, 3, 2, 0)
	return n.concat(name, b1, b2, b3)
}

func (n *net) inceptionC4(name string, x *tensor.Tensor) *tensor.Tensor {
	b1 := n.convBNReLU(name+"_1x1", x, 256, 1, 1, 1, 0, 0)
	b2 := n.convBNReLU(name+"_3x3", x, 384, 1, 1, 1, 0, 0)
	b2a := n.convBNReLU(name+"_3x3a", b2, 256, 1, 3, 1, 0, 1)
	b2b := n.convBNReLU(name+"_3x3b", b2, 256, 3, 1, 1, 1, 0)
	b3 := n.convBNReLU(name+"_dbl1", x, 384, 1, 1, 1, 0, 0)
	b3 = n.convBNReLU(name+"_dbl2", b3, 448, 1, 3, 1, 0, 1)
	b3 = n.convBNReLU(name+"_dbl3", b3, 512, 3, 1, 1, 1, 0)
	b3a := n.convBNReLU(name+"_dbl4a", b3, 256, 3, 1, 1, 1, 0)
	b3b := n.convBNReLU(name+"_dbl4b", b3, 256, 1, 3, 1, 0, 1)
	b4 := n.avgPool(name+"_pool", x, 3, 1, 1)
	b4 = n.convBNReLU(name+"_proj", b4, 256, 1, 1, 1, 0, 0)
	return n.concat(name, b1, b2a, b2b, b3a, b3b, b4)
}
