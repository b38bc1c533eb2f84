package models

import (
	"testing"

	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

func TestLSTMStructure(t *testing.T) {
	g, err := LSTM(4, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var cells, sigmoids, tanhs, muls int
	for _, n := range g.Nodes {
		if n.Phase != graph.Forward {
			continue
		}
		switch n.Op {
		case ops.Sigmoid:
			sigmoids++
		case ops.Tanh:
			tanhs++
		case ops.Mul:
			muls++
		}
		if n.Op.Name() == "Add" && len(n.ID) > 4 && n.ID[len(n.ID)-2:] == "_c" {
			cells++
		}
	}
	wantSteps := lstmSteps * lstmLayers
	if sigmoids != 3*wantSteps {
		t.Errorf("sigmoids = %d, want %d (3 gates x %d cell steps)", sigmoids, 3*wantSteps, wantSteps)
	}
	if tanhs != 2*wantSteps {
		t.Errorf("tanhs = %d, want %d", tanhs, 2*wantSteps)
	}
	if muls != 3*wantSteps {
		t.Errorf("muls = %d, want %d", muls, 3*wantSteps)
	}
}

func TestLSTMParameterCount(t *testing.T) {
	g, err := LSTM(2, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	// embeddings + 2 layers of (Wx + Wh + b) + head.
	want := int64(lstmVocab*lstmEmbed) +
		(int64(lstmEmbed)*4*lstmHidden + lstmHidden*4*lstmHidden + 4*lstmHidden) +
		(int64(lstmHidden)*4*lstmHidden + lstmHidden*4*lstmHidden + 4*lstmHidden) +
		(int64(lstmHidden)*lstmVocab + lstmVocab)
	if got := countParams(g); got != want {
		t.Errorf("parameters = %d, want %d", got, want)
	}
}

func TestLSTMGateReuseInBackward(t *testing.T) {
	// Mul gradients re-read both forward operands: the gate outputs must
	// have backward consumers, giving Capuchin eviction candidates in a
	// network with no convolutions at all.
	g, err := LSTM(2, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	gate := g.Tensor("l0_t0_o:0") // output gate at step 0
	if gate == nil {
		t.Fatal("l0_t0_o:0 missing")
	}
	backward := 0
	for _, c := range g.Consumers(gate) {
		if c.Phase == graph.Backward {
			backward++
		}
	}
	if backward == 0 {
		t.Error("gate output has no backward consumer; gated reuse pattern missing")
	}
}

func TestMobileNetV2Structure(t *testing.T) {
	g, err := MobileNetV2(2, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Published parameter count ~3.5M.
	params := countParams(g)
	if params < 3.0e6 || params > 4.0e6 {
		t.Errorf("parameters = %.2fM, want ~3.5M", float64(params)/1e6)
	}
	var depthwise, residuals int
	for _, n := range g.Nodes {
		if n.Phase != graph.Forward {
			continue
		}
		if _, ok := n.Op.(ops.DepthwiseConv2D); ok {
			depthwise++
		}
		if n.Op == ops.Add {
			residuals++
		}
	}
	// 17 inverted residual blocks, one depthwise each.
	if depthwise != 17 {
		t.Errorf("depthwise convs = %d, want 17", depthwise)
	}
	// Residual adds only where stride 1 and channels match: 10 blocks.
	if residuals != 10 {
		t.Errorf("residual adds = %d, want 10", residuals)
	}
	// Final head is 1280 channels at 7x7.
	var pool *graph.Node
	for _, n := range g.Nodes {
		if n.ID == "pool" {
			pool = n
		}
	}
	if pool == nil {
		t.Fatal("pool missing")
	}
	if in := pool.Inputs[0].Shape; in[1] != 1280 || in[2] != 7 {
		t.Errorf("head shape = %v, want [N 1280 7 7]", in)
	}
}

func TestDepthwiseMemoryBound(t *testing.T) {
	// A depthwise conv moves the same activations as a dense 3x3 conv but
	// does ~C times less arithmetic (checked in internal/ops): its
	// recomputation is nearly free in wall-clock, which MSPS sees and FLOP
	// heuristics do not.
	dw := ops.DepthwiseConv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	dense := ops.Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x := tensor.Shape{8, 256, 28, 28}
	dwIn := []tensor.Shape{x, {256, 1, 3, 3}}
	denseIn := []tensor.Shape{x, {256, 256, 3, 3}}
	d := hwP100()
	dwT := dw.Algorithms(d, dwIn, nil)[0].Duration
	denseT := dense.Algorithms(d, denseIn, nil)[0].Duration
	if float64(denseT)/float64(dwT) < 5 {
		t.Errorf("dense conv (%v) should be much slower than depthwise (%v)", denseT, dwT)
	}
}

// hwP100 avoids an import cycle shim in tests.
func hwP100() hw.DeviceSpec { return hw.P100() }

func TestGRUStructure(t *testing.T) {
	g, err := GRU(4, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var sigmoids, tanhs, subs int
	for _, n := range g.Nodes {
		if n.Phase != graph.Forward {
			continue
		}
		switch n.Op {
		case ops.Sigmoid:
			sigmoids++
		case ops.Tanh:
			tanhs++
		case ops.Sub:
			subs++
		}
	}
	steps := gruSteps * gruLayers
	if sigmoids != 2*steps {
		t.Errorf("sigmoids = %d, want %d (r and z per cell step)", sigmoids, 2*steps)
	}
	if tanhs != steps {
		t.Errorf("tanhs = %d, want %d", tanhs, steps)
	}
	if subs != steps {
		t.Errorf("subs = %d, want %d", subs, steps)
	}
	// The interpolation's Sub gets a negated gradient path.
	negs := 0
	for _, n := range g.Nodes {
		if n.Op == ops.Neg && n.Phase == graph.Backward {
			negs++
		}
	}
	if negs == 0 {
		t.Error("no Neg gradients emitted for Sub")
	}
}
