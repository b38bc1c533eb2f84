package exec

import (
	"reflect"
	"testing"

	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
)

// TestRecycleSessionMatchesNew recycles one parked session across graphs
// of different sizes, both allocators, both modes and runs that end in
// OOM, every one traced and recording spans: each recycled session's
// statistics, event stream and spans must equal those of a new session
// on a fresh graph.
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
	run := func(spare *Session, c cell) (*Session, []IterStats, error, []obs.Event, []int) {
		col := obs.NewCollector()
		s, err := RecycleSession(spare, c.build(), Config{Device: hw.P100().WithMemory(c.mem), Mode: c.mode,
			Allocator: c.alloc, Tracer: col, RecordSpans: true})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := s.Run(2)
		compute, h2d, d2h := s.Streams()
		return s, stats, err, col.Events(), []int{len(compute.Spans()), len(h2d.Spans()), len(d2h.Spans())}
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
