package chunk

import (
	"reflect"
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/testutil"
)

func build(t *testing.T) *graph.Graph {
	return testutil.SmallCNN(t, 6, 64, graph.GraphModeOptions())
}

func TestChunkPacking(t *testing.T) {
	g := build(t)
	dev := testutil.Device(64 * hw.MiB)
	p := New(g, dev, Options{ChunkBytes: 8 * hw.MiB})
	if p.NumChunks() < 2 {
		t.Fatalf("packing produced %d chunks at 8 MiB; expected several", p.NumChunks())
	}
	if p.Name() != "chunk" {
		t.Error("name")
	}
	if p.TracksAccesses() {
		t.Error("chunk placement is plan-driven; no tracking overhead")
	}
}

func TestChunkMatchesOracle(t *testing.T) {
	g := build(t)
	dev := testutil.Device(56 * hw.MiB)
	p := New(g, dev, Options{ChunkBytes: 8 * hw.MiB})
	s, err := exec.NewSession(g, exec.Config{Device: dev, Policy: p})
	if err != nil {
		t.Fatal(err)
	}
	sts, err := s.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if p.PlanEvicts() == 0 {
		t.Error("no planned evictions at 56 MiB; plan exercised nothing")
	}
	testutil.MatchesReference(t, "chunk placement", build(t), sts)
}

// TestChunkDegeneratesToBaseline is the differential satellite: with the
// chunk size at device memory every activation packs into one chunk, the
// policy has nothing to place, and the run must be byte-identical to the
// no-management baseline — identical IterStats, not merely identical
// fingerprints.
func TestChunkDegeneratesToBaseline(t *testing.T) {
	dev := testutil.Device(2 * hw.GiB)
	run := func(pol exec.Policy) []exec.IterStats {
		t.Helper()
		g := build(t)
		if pol == nil {
			pol = New(g, dev, Options{ChunkBytes: dev.MemoryBytes})
			if pol.(*Policy).NumChunks() != 1 {
				t.Fatalf("expected one chunk at ChunkBytes = device memory, got %d", pol.(*Policy).NumChunks())
			}
		}
		s, err := exec.NewSession(g, exec.Config{Device: dev, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		sts, err := s.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		return sts
	}
	base := run(exec.NullPolicy{})
	chunked := run(nil)
	if !reflect.DeepEqual(base, chunked) {
		t.Errorf("degenerate chunk run diverged from baseline:\nbase    %+v\nchunked %+v", base, chunked)
	}
}

func TestChunkRegistered(t *testing.T) {
	spec, ok := exec.LookupPolicy("chunk")
	if !ok {
		t.Fatal("chunk not registered")
	}
	if !spec.Arena {
		t.Error("chunk should compete in the arena")
	}
	if _, err := spec.Build(exec.BuildContext{Device: hw.P100()}); err == nil {
		t.Error("nil-graph build should error")
	}
}
