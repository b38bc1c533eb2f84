package exec

import (
	"reflect"
	"testing"

	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// TestRecycleSessionMatchesNew recycles one parked session across graphs
// of different sizes, both allocators, both modes and runs that end in
// OOM, every one traced: each recycled session's statistics, event
// stream and span count per lane must equal those of a new session on a
// fresh graph.
func TestRecycleSessionMatchesNew(t *testing.T) {
	type cell struct {
		build func() *graph.Graph
		mode  Mode
		alloc string
		mem   int64
	}
	cnn := func(opt graph.BuildOptions) func() *graph.Graph {
		return func() *graph.Graph { return testCNN(t, opt) }
	}
	chain := func(seed int64) func() *graph.Graph {
		return func() *graph.Graph { return randomChain(t, seed) }
	}
	cells := []cell{
		{cnn(graph.EagerModeOptions()), EagerMode, "firstfit", 1 << 30},
		{chain(3), GraphMode, "bfc", 1 << 30},
		{cnn(graph.GraphModeOptions()), GraphMode, "", 40 << 20},
		{chain(8), GraphMode, "firstfit", 1 << 30},
		{cnn(graph.EagerModeOptions()), EagerMode, "bfc", 64 << 20},
		{chain(3), GraphMode, "", 1 << 30},
	}
	run := func(spare *Session, c cell) (*Session, []IterStats, error, []obs.Event, map[string]int) {
		col := obs.NewCollector()
		s, err := RecycleSession(spare, c.build(), Config{Device: hw.P100().WithMemory(c.mem), Mode: c.mode,
			Allocator: c.alloc, Tracer: col})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := s.Run(2)
		events := col.Events()
		spans := make(map[string]int)
		for _, ev := range events {
			if ev.Kind == obs.KindSpan {
				spans[ev.Lane]++
			}
		}
		return s, stats, err, events, spans
	}
	var spare *Session
	sizes := make(map[int]bool)
	for i, c := range cells {
		s, stats, err, events, spans := run(spare, c)
		_, wantStats, wantErr, wantEvents, wantSpans := run(nil, c)
		if spare != nil && s != spare {
			t.Errorf("cell %d: RecycleSession returned a new session instead of its spare", i)
		}
		if !reflect.DeepEqual(stats, wantStats) || !reflect.DeepEqual(err, wantErr) {
			t.Errorf("cell %d: recycled session ran %+v (%v), a new one %+v (%v)", i, stats, err, wantStats, wantErr)
		}
		if !reflect.DeepEqual(events, wantEvents) || !reflect.DeepEqual(spans, wantSpans) {
			t.Errorf("cell %d: recycled session traced %d events and %v spans, a new one %d and %v",
				i, len(events), spans, len(wantEvents), wantSpans)
		}
		sizes[len(s.tlist)] = true
		s.Park()
		spare = s
	}
	if len(sizes) < 3 {
		t.Errorf("the cells cover %d graph sizes, want 3 or more", len(sizes))
	}
}

// menuOp is a custom elementwise operator with a two-entry cost menu.
// With fresh set, Algorithms ignores dst and returns a slice of its own,
// which the ops.Op contract allows.
type menuOp struct{ fresh bool }

func (menuOp) Name() string { return "MenuProbe" }

func (menuOp) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	return []tensor.Shape{in[0]}, nil
}

func (op menuOp) Algorithms(dev hw.DeviceSpec, in []tensor.Shape, dst []ops.Algorithm) []ops.Algorithm {
	bytes := in[0].Elems() * 4
	menu := []ops.Algorithm{
		{Name: "tiled", Duration: dev.MemoryTime(bytes), Workspace: bytes},
		{Name: "direct", Duration: dev.MemoryTime(3 * bytes)},
	}
	if op.fresh {
		return menu
	}
	return append(dst, menu...)
}

func init() {
	graph.RegisterGradient("MenuProbe", func(gc *graph.GradientContext, n *graph.Node, dys []*tensor.Tensor) error {
		if gc.NeedsGradient(n.Inputs[0]) {
			gc.AddGradient(n.Inputs[0], gc.Emit("grad/"+n.ID, n.Op, dys[0]))
		}
		return nil
	})
}

// TestFreshAlgorithmSlice runs a graph whose custom op returns its own
// algorithm slice instead of appending to dst, in a new and in a
// recycled session: each must run exactly like the same graph with an op
// that appends.
func TestFreshAlgorithmSlice(t *testing.T) {
	build := func(fresh bool) *graph.Graph {
		b := graph.NewBuilder("menu")
		x := b.Input("data", tensor.Shape{4, 8, 16, 16}, tensor.Float32)
		labels := b.Input("labels", tensor.Shape{4, 10}, tensor.Float32)
		w := b.Variable("w", tensor.Shape{8, 8, 3, 3})
		h := b.Apply1("conv", ops.Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, x, w)
		h = b.Apply1("relu", ops.ReLU, h)
		h = b.Apply1("menu", menuOp{fresh: fresh}, h)
		h = b.Apply1("conv2", ops.Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, h, b.Variable("w2", tensor.Shape{8, 8, 3, 3}))
		h = b.Apply1("gap", ops.Pool{Kind: ops.AvgPoolKind}, h)
		flat := b.Apply1("flatten", ops.Reshape{To: tensor.Shape{4, h.Shape.Elems() / 4}}, h)
		logits := b.Apply1("fc", ops.MatMul{}, flat, b.Variable("fc_w", tensor.Shape{flat.Shape[1], 10}))
		g, err := b.Build(b.Apply1("loss", ops.SoftmaxCrossEntropy{}, logits, labels), graph.GraphModeOptions())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	run := func(spare *Session, fresh bool) (*Session, []IterStats) {
		s, err := RecycleSession(spare, build(fresh), Config{Device: hw.P100().WithMemory(1 << 30)})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := s.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		return s, stats
	}
	_, want := run(nil, false)
	s, got := run(nil, true)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("new session: fresh menus ran %+v, appended ones %+v", got, want)
	}
	s.Park()
	if _, got := run(s, true); !reflect.DeepEqual(got, want) {
		t.Errorf("recycled session: fresh menus ran %+v, appended ones %+v", got, want)
	}
}
