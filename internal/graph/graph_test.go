package graph

import (
	"strings"
	"testing"

	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// buildMLP constructs input -> matmul -> bias -> relu -> matmul -> bias ->
// loss, the smallest realistic training graph.
func buildMLP(t *testing.T, opt BuildOptions) *Graph {
	t.Helper()
	b := NewBuilder("mlp")
	x := b.Input("data", tensor.Shape{32, 784}, tensor.Float32)
	labels := b.Input("labels", tensor.Shape{32, 10}, tensor.Float32)
	w1 := b.Variable("w1", tensor.Shape{784, 256})
	b1 := b.Variable("b1", tensor.Shape{256})
	w2 := b.Variable("w2", tensor.Shape{256, 10})
	b2 := b.Variable("b2", tensor.Shape{10})

	h := b.Apply1("fc1", ops.MatMul{}, x, w1)
	h = b.Apply1("fc1_bias", ops.BiasAdd{}, h, b1)
	h = b.Apply1("fc1_relu", ops.ReLU, h)
	logits := b.Apply1("fc2", ops.MatMul{}, h, w2)
	logits = b.Apply1("fc2_bias", ops.BiasAdd{}, logits, b2)
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, logits, labels)

	g, err := b.Build(loss, opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func countByPhase(g *Graph) map[Phase]int {
	m := make(map[Phase]int)
	for _, n := range g.Nodes {
		m[n.Phase]++
	}
	return m
}

func TestBuildMLPBackward(t *testing.T) {
	g := buildMLP(t, BuildOptions{})
	phases := countByPhase(g)
	if phases[Forward] == 0 || phases[Backward] == 0 {
		t.Fatalf("phases = %v", phases)
	}
	// Four variables, four updates.
	if phases[Update] != 4 {
		t.Errorf("updates = %d, want 4", phases[Update])
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The loss must exist and be scalar.
	if g.Loss == nil || len(g.Loss.Shape) != 0 {
		t.Fatalf("loss = %v", g.Loss)
	}
}

func TestBackwardConsumesFeatureMaps(t *testing.T) {
	g := buildMLP(t, BuildOptions{})
	// fc1's output feeds fc1_bias in forward; fc1's *input* (data) feeds
	// the weight-gradient matmul in backward. The ReLU output must be
	// consumed by ReLUGrad in backward: the long-gap reuse pattern.
	relu := g.Tensor("fc1_relu:0")
	if relu == nil {
		t.Fatal("fc1_relu:0 missing")
	}
	var hasBackwardConsumer bool
	for _, c := range g.Consumers(relu) {
		if c.Phase == Backward {
			hasBackwardConsumer = true
		}
	}
	if !hasBackwardConsumer {
		t.Error("ReLU output has no backward consumer; feature-map reuse missing")
	}
}

func TestGradientsMarked(t *testing.T) {
	g := buildMLP(t, BuildOptions{})
	marked := 0
	for _, n := range g.Nodes {
		if n.Phase != Backward {
			continue
		}
		for _, out := range n.Outputs {
			if !out.Gradient {
				t.Errorf("backward output %s not marked Gradient", out.ID)
			}
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no backward outputs found")
	}
}

func TestResidualFanOutEmitsAddN(t *testing.T) {
	// x feeds both branches of a residual add; its gradient must be the
	// AddN of two contributions.
	b := NewBuilder("res")
	x := b.Input("data", tensor.Shape{8, 16}, tensor.Float32)
	labels := b.Input("labels", tensor.Shape{8, 16}, tensor.Float32)
	w := b.Variable("w", tensor.Shape{16, 16})
	h := b.Apply1("fc", ops.MatMul{}, x, w)
	h2 := b.Apply1("relu", ops.ReLU, h)
	sum := b.Apply1("residual", ops.Add, h, h2) // h used twice downstream
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, sum, labels)
	g, err := b.Build(loss, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range g.Nodes {
		if _, ok := n.Op.(ops.AddN); ok && n.Phase == Backward {
			found = true
		}
	}
	if !found {
		t.Error("no AddN emitted for fan-out gradient accumulation")
	}
}

func TestFuseBiasAdd(t *testing.T) {
	plain := buildMLP(t, BuildOptions{})
	fused := buildMLP(t, BuildOptions{FuseBiasAdd: true})
	var plainBias, fusedBias, fusedOps int
	for _, n := range plain.Nodes {
		if _, ok := n.Op.(ops.BiasAdd); ok {
			plainBias++
		}
	}
	for _, n := range fused.Nodes {
		if _, ok := n.Op.(ops.BiasAdd); ok {
			fusedBias++
		}
		if _, ok := n.Op.(ops.FusedBias); ok {
			fusedOps++
			if len(n.Outputs) != 1 || !strings.Contains(n.Outputs[0].ID, "bias") {
				t.Errorf("fused node kept wrong output: %v", n.Outputs[0].ID)
			}
		}
	}
	if plainBias != 2 {
		t.Fatalf("plain graph has %d BiasAdd nodes, want 2", plainBias)
	}
	if fusedBias != 0 || fusedOps != 2 {
		t.Errorf("fused graph: %d BiasAdd, %d FusedBias; want 0 and 2", fusedBias, fusedOps)
	}
	// Fusion removes one intermediate tensor per fused pair.
	if len(fused.TensorList()) >= len(plain.TensorList()) {
		t.Errorf("fusion did not reduce tensor count: %d vs %d", len(fused.TensorList()), len(plain.TensorList()))
	}
	if err := fused.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFuseSkipsSharedIntermediate(t *testing.T) {
	// When the pre-bias value has another consumer, fusion must not fire.
	b := NewBuilder("shared")
	x := b.Input("data", tensor.Shape{8, 16}, tensor.Float32)
	labels := b.Input("labels", tensor.Shape{8, 16}, tensor.Float32)
	w := b.Variable("w", tensor.Shape{16, 16})
	bias := b.Variable("b", tensor.Shape{16})
	h := b.Apply1("fc", ops.MatMul{}, x, w)
	hb := b.Apply1("fc_bias", ops.BiasAdd{}, h, bias)
	sum := b.Apply1("join", ops.Add, h, hb) // h escapes
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, sum, labels)
	g, err := b.Build(loss, BuildOptions{FuseBiasAdd: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if _, ok := n.Op.(ops.FusedBias); ok {
			t.Error("fused BiasAdd despite shared intermediate")
		}
	}
}

func TestPruneRemovesDeadBranch(t *testing.T) {
	b := NewBuilder("dead")
	x := b.Input("data", tensor.Shape{8, 16}, tensor.Float32)
	labels := b.Input("labels", tensor.Shape{8, 16}, tensor.Float32)
	w := b.Variable("w", tensor.Shape{16, 16})
	h := b.Apply1("fc", ops.MatMul{}, x, w)
	b.Apply1("dead_relu", ops.ReLU, h) // never used
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, h, labels)
	g, err := b.Build(loss, BuildOptions{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if n.ID == "dead_relu" {
			t.Error("dead node survived pruning")
		}
	}
}

func TestPruneKeepsUpdates(t *testing.T) {
	g := buildMLP(t, BuildOptions{Prune: true})
	if got := countByPhase(g)[Update]; got != 4 {
		t.Errorf("updates after prune = %d, want 4", got)
	}
}

func TestValidateCatchesUseBeforeProduce(t *testing.T) {
	b := NewBuilder("broken")
	x := b.Input("data", tensor.Shape{4}, tensor.Float32)
	y := b.Apply1("relu", ops.ReLU, x)
	g := &Graph{Name: "broken", Nodes: b.nodes, Loss: y}
	g.reindex()
	// Swap nodes so relu precedes data.
	g.Nodes[0], g.Nodes[1] = g.Nodes[1], g.Nodes[0]
	if err := g.Validate(); err == nil {
		t.Error("use-before-produce not caught")
	}
}

func TestApplyPanicsOnShapeError(t *testing.T) {
	b := NewBuilder("panic")
	x := b.Input("data", tensor.Shape{4, 4}, tensor.Float32)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad shapes")
		}
	}()
	b.Apply1("bad", ops.MatMul{}, x, x) // 4x4 by 4x4 is fine... use mismatch
	y := b.Input("data2", tensor.Shape{3, 7}, tensor.Float32)
	b.Apply1("bad2", ops.MatMul{}, x, y)
}

func TestUniqueNames(t *testing.T) {
	b := NewBuilder("dup")
	x := b.Input("data", tensor.Shape{4}, tensor.Float32)
	y1 := b.Apply1("relu", ops.ReLU, x)
	y2 := b.Apply1("relu", ops.ReLU, y1)
	if y1.ID == y2.ID {
		t.Errorf("duplicate tensor IDs: %s", y1.ID)
	}
}

func TestArticulationTensorsChain(t *testing.T) {
	// A pure chain: every intermediate separates the graph.
	b := NewBuilder("chain")
	x := b.Input("data", tensor.Shape{8, 16}, tensor.Float32)
	labels := b.Input("labels", tensor.Shape{8, 16}, tensor.Float32)
	h := x
	for i := 0; i < 4; i++ {
		h = b.Apply1("relu", ops.ReLU, h)
	}
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, h, labels)
	g, err := b.Build(loss, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	arts := ArticulationTensors(g)
	ids := make(map[string]bool)
	for _, a := range arts {
		ids[a.ID] = true
	}
	// Each chained ReLU output except the last-before-loss has a single
	// crossing; at minimum the interior ReLU outputs must appear.
	for _, want := range []string{"relu:0", "relu_1:0", "relu_2:0"} {
		if !ids[want] {
			t.Errorf("chain articulation missing %s (got %v)", want, ids)
		}
	}
}

func TestArticulationTensorsSkipsParallelBranches(t *testing.T) {
	// Residual block: branch tensors overlap, so neither branch tensor is
	// an articulation point, but the joined output is.
	b := NewBuilder("res")
	x := b.Input("data", tensor.Shape{8, 16}, tensor.Float32)
	labels := b.Input("labels", tensor.Shape{8, 16}, tensor.Float32)
	pre := b.Apply1("pre", ops.ReLU, x)
	left := b.Apply1("left", ops.GELU, pre)
	sum := b.Apply1("join", ops.Add, pre, left)
	post := b.Apply1("post", ops.ReLU, sum)
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, post, labels)
	g, err := b.Build(loss, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	for _, a := range ArticulationTensors(g) {
		ids[a.ID] = true
	}
	// At the cut after "left", both pre:0 (still needed by the join) and
	// left:0 are live, so left:0 must not be an articulation point. At
	// the cut after "pre", pre:0 is the only live value, so it is one.
	if ids["left:0"] {
		t.Error("branch tensor left:0 wrongly classified as articulation point")
	}
	for _, want := range []string{"pre:0", "join:0", "post:0"} {
		if !ids[want] {
			t.Errorf("join tensor %s missing from articulation set %v", want, ids)
		}
	}
}

func TestInversePerm(t *testing.T) {
	perm := []int{0, 2, 1, 3}
	inv := inversePerm(perm)
	for i, p := range perm {
		if inv[p] != i {
			t.Fatalf("inversePerm(%v) = %v", perm, inv)
		}
	}
	perm2 := []int{2, 0, 1}
	if got := inversePerm(perm2); got[2] != 0 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("inversePerm(%v) = %v", perm2, got)
	}
}

func TestConsumerCount(t *testing.T) {
	g := buildMLP(t, BuildOptions{})
	// w1 is consumed by fc1 (forward) and its update only: the da matmul
	// toward the raw data input is skipped. w2 feeds fc2 forward, the
	// backward da matmul (since fc2's activation input needs a gradient),
	// and its update.
	w1 := g.Tensor("w1:0")
	w2 := g.Tensor("w2:0")
	if w1 == nil || w2 == nil {
		t.Fatal("weights missing")
	}
	if got := g.ConsumerCount(w1); got != 2 {
		t.Errorf("ConsumerCount(w1) = %d, want 2 (forward, update)", got)
	}
	if got := g.ConsumerCount(w2); got != 3 {
		t.Errorf("ConsumerCount(w2) = %d, want 3 (forward, backward, update)", got)
	}
}

func TestParameterBytes(t *testing.T) {
	g := buildMLP(t, BuildOptions{})
	want := int64(784*256+256+256*10+10) * 4
	if got := g.ParameterBytes(); got != want {
		t.Errorf("ParameterBytes = %d, want %d", got, want)
	}
}

func TestBuildErrors(t *testing.T) {
	b := NewBuilder("noloss")
	b.Input("data", tensor.Shape{4}, tensor.Float32)
	if _, err := b.Build(nil, BuildOptions{}); err == nil {
		t.Error("Build accepted nil loss")
	}
	foreign := new(tensor.Arena).New("foreign:0", tensor.Shape{}, tensor.Float32)
	if _, err := b.Build(foreign, BuildOptions{}); err == nil {
		t.Error("Build accepted a loss from another graph")
	}
}

func TestModeOptionPresets(t *testing.T) {
	gm := GraphModeOptions()
	if !gm.FuseBiasAdd || !gm.Prune {
		t.Error("graph mode should enable fusion and pruning")
	}
	em := EagerModeOptions()
	if em.FuseBiasAdd || em.Prune {
		t.Error("eager mode must not enable graph-level optimizations")
	}
}

func TestOptimizerStateVariables(t *testing.T) {
	build := func(rule ops.Optimizer) *Graph {
		b := NewBuilder("opt")
		x := b.Input("data", tensor.Shape{4, 8}, tensor.Float32)
		labels := b.Input("labels", tensor.Shape{4, 8}, tensor.Float32)
		w := b.Variable("w", tensor.Shape{8, 8})
		h := b.Apply1("fc", ops.MatMul{}, x, w)
		loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, h, labels)
		g, err := b.Build(loss, BuildOptions{Optimizer: ops.ApplyGradient{Rule: rule}})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	sgd := build(ops.SGD)
	mom := build(ops.Momentum)
	adam := build(ops.Adam)
	// One weight of 64 elements: SGD keeps 64, momentum 128, adam 192
	// persistent elements (times 4 bytes).
	if got, want := sgd.ParameterBytes(), int64(64*4); got != want {
		t.Errorf("SGD parameter bytes = %d, want %d", got, want)
	}
	if got, want := mom.ParameterBytes(), int64(2*64*4); got != want {
		t.Errorf("Momentum parameter bytes = %d, want %d", got, want)
	}
	if got, want := adam.ParameterBytes(), int64(3*64*4); got != want {
		t.Errorf("Adam parameter bytes = %d, want %d", got, want)
	}
	// The update node consumes the state slots.
	for _, n := range adam.Nodes {
		if n.Phase == Update && n.Op.Name() == "ApplyGradient" {
			if len(n.Inputs) != 4 {
				t.Errorf("Adam update has %d inputs, want 4 (var, grad, m, v)", len(n.Inputs))
			}
		}
	}
}

func TestGradChunkTreeReduction(t *testing.T) {
	// A tensor consumed by 20 branches accumulates its gradient through a
	// tree of bounded AddN nodes, never one 20-way reduction.
	b := NewBuilder("fanout")
	x := b.Input("data", tensor.Shape{4, 8}, tensor.Float32)
	labels := b.Input("labels", tensor.Shape{4, 8}, tensor.Float32)
	w := b.Variable("w", tensor.Shape{8, 8})
	h := b.Apply1("fc", ops.MatMul{}, x, w)
	acc := b.Apply1("branch", ops.GELU, h)
	for i := 0; i < 19; i++ {
		br := b.Apply1("branch", ops.GELU, h)
		acc = b.Apply1("join", ops.Add, acc, br)
	}
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, acc, labels)
	g, err := b.Build(loss, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if _, ok := n.Op.(ops.AddN); ok && len(n.Inputs) > 8 {
			t.Errorf("AddN with %d inputs exceeds the accumulation chunk", len(n.Inputs))
		}
	}
}
