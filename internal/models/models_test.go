package models

import (
	"testing"

	"capuchin/internal/graph"
	"capuchin/internal/ops"
)

// buildAll builds every registered model at a small batch.
func buildAll(t *testing.T, opt graph.BuildOptions) map[string]*graph.Graph {
	t.Helper()
	out := make(map[string]*graph.Graph)
	for _, name := range Names() {
		spec, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := spec.Build(4, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = g
	}
	return out
}

func TestRegistry(t *testing.T) {
	names := Names()
	// The paper's seven workloads (Table 1) plus the LSTM and MobileNetV2 extensions.
	if len(names) != 11 {
		t.Fatalf("registry has %d models, want 11", len(names))
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown model accepted")
	}
	s, err := Get("resnet50")
	if err != nil || s.Name != "resnet50" || !s.Eager {
		t.Errorf("resnet50 spec = %+v, %v", s, err)
	}
	b, err := Get("bert")
	if err != nil || b.PaperMaxBatchTF != 64 {
		t.Errorf("bert spec = %+v, %v", b, err)
	}
}

func TestAllModelsBuildAndValidate(t *testing.T) {
	for name, g := range buildAll(t, graph.GraphModeOptions()) {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if g.Loss == nil {
			t.Errorf("%s: no loss", name)
		}
	}
}

func TestAllModelsBuildEager(t *testing.T) {
	for name, g := range buildAll(t, graph.EagerModeOptions()) {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// countParams sums persistent tensor elements.
func countParams(g *graph.Graph) int64 {
	var n int64
	for _, t := range g.TensorList() {
		if t.Persistent {
			n += t.Shape.Elems()
		}
	}
	return n
}

func TestParameterCounts(t *testing.T) {
	// Published parameter counts; the builders must land within 15%
	// (BERT unties the LM head, adding one vocab-sized matrix).
	want := map[string]struct{ params, tol float64 }{
		"alexnet":     {61e6, 0.10},
		"vgg16":       {138e6, 0.10},
		"resnet50":    {25.6e6, 0.10},
		"resnet152":   {60.2e6, 0.10},
		"inceptionv3": {23.8e6, 0.15},
		"inceptionv4": {42.7e6, 0.15},
		"densenet":    {8.0e6, 0.15},
		"bert":        {133e6, 0.15}, // 110M + untied 23M LM head
	}
	graphs := buildAll(t, graph.GraphModeOptions())
	for name, w := range want {
		got := float64(countParams(graphs[name]))
		if got < w.params*(1-w.tol) || got > w.params*(1+w.tol) {
			t.Errorf("%s: %0.1fM parameters, want %0.1fM +-%.0f%%",
				name, got/1e6, w.params/1e6, w.tol*100)
		}
	}
}

func countConvs(g *graph.Graph) int {
	n := 0
	for _, node := range g.Nodes {
		if node.Phase != graph.Forward {
			continue
		}
		switch node.Op.(type) {
		case ops.Conv2D:
			n++
		case ops.FusedBias:
			if _, ok := node.Op.(ops.FusedBias).Inner.(ops.Conv2D); ok {
				n++
			}
		}
	}
	return n
}

func TestConvolutionCounts(t *testing.T) {
	graphs := buildAll(t, graph.GraphModeOptions())
	// The paper's Fig. 2 profiles 94 InceptionV3 convolutions; VGG16 has
	// 13; ResNet-50 has 53 (49 + 4 projections); ResNet-152 has 155.
	want := map[string]struct{ lo, hi int }{
		"vgg16":       {13, 13},
		"resnet50":    {53, 53},
		"resnet152":   {155, 155},
		"inceptionv3": {90, 100},
		"inceptionv4": {140, 165},
		"densenet":    {120, 125},
	}
	for name, w := range want {
		if got := countConvs(graphs[name]); got < w.lo || got > w.hi {
			t.Errorf("%s: %d convolutions, want %d..%d", name, got, w.lo, w.hi)
		}
	}
}

func TestNodeCountScale(t *testing.T) {
	// §1: ResNet-50 exceeds 3000 nodes and BERT 7000 in TensorFlow's
	// graph. Our IR fuses less aggressively at the framework level, so
	// expect the same order of magnitude: hundreds to thousands.
	graphs := buildAll(t, graph.GraphModeOptions())
	if n := len(graphs["resnet50"].Nodes); n < 300 {
		t.Errorf("resnet50 has %d nodes; implausibly small", n)
	}
	if n := len(graphs["bert"].Nodes); n < 500 {
		t.Errorf("bert has %d nodes; implausibly small", n)
	}
	if len(graphs["resnet152"].Nodes) <= len(graphs["resnet50"].Nodes) {
		t.Error("resnet152 should have more nodes than resnet50")
	}
}

func TestBatchScalesActivationsNotParams(t *testing.T) {
	g4, err := ResNet50(4, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	g8, err := ResNet50(8, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if countParams(g4) != countParams(g8) {
		t.Error("parameter count depends on batch size")
	}
	var act4, act8 int64
	for _, tt := range g4.TensorList() {
		if !tt.Persistent {
			act4 += tt.Bytes()
		}
	}
	for _, tt := range g8.TensorList() {
		if !tt.Persistent {
			act8 += tt.Bytes()
		}
	}
	ratio := float64(act8) / float64(act4)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("activation bytes scaled by %.2f for 2x batch, want ~2", ratio)
	}
}

func TestInvalidBatchRejected(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Get(name)
		if _, err := spec.Build(0, graph.GraphModeOptions()); err == nil {
			t.Errorf("%s accepted batch 0", name)
		}
		if _, err := spec.Build(-3, graph.GraphModeOptions()); err == nil {
			t.Errorf("%s accepted negative batch", name)
		}
	}
}

func TestVGGFirstReLUScale(t *testing.T) {
	// §6.3.1: VGG16's first ReLU layer needs ~6 GB at batch 230 (input +
	// output of the 224x224x64 activation).
	g, err := VGG16(230, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	relu := g.Tensor("conv1_1_relu:0")
	if relu == nil {
		t.Fatal("conv1_1_relu:0 missing")
	}
	pair := 2 * relu.Bytes()
	gb := float64(pair) / (1 << 30)
	if gb < 4.5 || gb > 7.5 {
		t.Errorf("first ReLU in+out = %.1f GB at batch 230, paper says ~6 GB", gb)
	}
}

func TestBERTStructure(t *testing.T) {
	g, err := BERTBase(2, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	var layerNorms, softmaxes, gelus int
	for _, n := range g.Nodes {
		if n.Phase != graph.Forward {
			continue
		}
		switch n.Op {
		case ops.LayerNorm{}:
			layerNorms++
		case ops.Softmax:
			softmaxes++
		case ops.GELU:
			gelus++
		}
	}
	// 12 layers x 2 layer norms + embedding norm.
	if layerNorms != 25 {
		t.Errorf("layer norms = %d, want 25", layerNorms)
	}
	if softmaxes != 12 {
		t.Errorf("attention softmaxes = %d, want 12", softmaxes)
	}
	if gelus != 12 {
		t.Errorf("GELUs = %d, want 12", gelus)
	}
	// Attention score tensors are [B, heads, S, S].
	scores := g.Tensor("layer0_scores:0")
	if scores == nil {
		t.Fatal("layer0_scores:0 missing")
	}
	if scores.Shape[1] != bertHeads || scores.Shape[2] != bertSeqLen || scores.Shape[3] != bertSeqLen {
		t.Errorf("scores shape = %v", scores.Shape)
	}
}

func TestDenseNetConcatGrowth(t *testing.T) {
	g, err := DenseNet121(2, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	// After dense block 1 (6 layers of growth 32 on 64 channels), the
	// transition input has 64+6*32 = 256 channels.
	var found bool
	for _, n := range g.Nodes {
		if n.ID == "trans1_1x1" && n.Phase == graph.Forward {
			if got := n.Outputs[0].Shape[1]; got != 128 {
				t.Errorf("transition 1 output channels = %d, want 128", got)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("transition 1 not found")
	}
}

func TestResNetStageShapes(t *testing.T) {
	g, err := ResNet50(2, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Final stage output is [N, 2048, 7, 7].
	var last *graph.Node
	for _, n := range g.Nodes {
		if n.ID == "pool5" {
			last = n
		}
	}
	if last == nil {
		t.Fatal("pool5 missing")
	}
	in := last.Inputs[0].Shape
	if in[1] != 2048 || in[2] != 7 || in[3] != 7 {
		t.Errorf("stage 5 shape = %v, want [N 2048 7 7]", in)
	}
}

func TestInceptionOutputChannels(t *testing.T) {
	g, err := InceptionV3(2, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	var pool *graph.Node
	for _, n := range g.Nodes {
		if n.ID == "pool" {
			pool = n
		}
	}
	if pool == nil {
		t.Fatal("global pool missing")
	}
	in := pool.Inputs[0].Shape
	if in[1] != 2048 || in[2] != 8 || in[3] != 8 {
		t.Errorf("final grid = %v, want [N 2048 8 8]", in)
	}
}
