package bench

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/fault"
	"capuchin/internal/hw"
	"capuchin/internal/models"
)

// recycledCells is a seeded sequence of resnet50 cells for one template
// slot: every system in turn, at mixed batches, memory sizes and
// allocators, one of them under a fault plan and one profiled.
func recycledCells() []RunConfig {
	systems := []System{SystemTF, SystemVDNN, SystemOpenAIMemory, SystemCapuchin, SystemDTR}
	batches := []int64{8, 24, 64, 128, 160, 256}
	mems := []int64{2, 4, 16}
	allocators := []string{"", "firstfit"}
	rng := rand.New(rand.NewPCG(7, 27))
	cells := make([]RunConfig, 20)
	for i := range cells {
		cells[i] = RunConfig{
			Model:     "resnet50",
			System:    systems[i%len(systems)],
			Batch:     batches[rng.IntN(len(batches))],
			Device:    hw.P100().WithMemory(mems[rng.IntN(len(mems))] * hw.GiB),
			Allocator: allocators[rng.IntN(len(allocators))],
		}
	}
	cells[7].Faults = fault.DefaultPlan(11)
	cells[12].Profile = true
	return cells
}

// TestRecycledProbeMatchesFresh drives one template slot through
// recycledCells: each cell refills the graph and session the cell before
// it handed back, and its Result must equal that of a cell run from
// scratch on a nil set. After the sequence every earlier Result must
// still equal its fresh twin, so no Result aliases recycled storage.
func TestRecycledProbeMatchesFresh(t *testing.T) {
	cells := recycledCells()
	ts := NewTemplates()
	spec, err := models.Get("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]Result, len(cells))
	want := make([]Result, len(cells))
	var spare probe
	var oomBefore, faulted, firstfit, bfc int
	for i, cfg := range cells {
		label := fmt.Sprintf("cell %d (%s b%d %d GiB %q)", i, cfg.System, cfg.Batch, cfg.Device.MemoryBytes/hw.GiB, cfg.Allocator)
		got[i] = ts.RunTraced(cfg, nil)
		want[i], _, _ = run(cfg, nil, nil)
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: recycled Result differs from a fresh run's\ngot:  %+v\nwant: %+v", label, got[i], want[i])
		}
		slot, err := ts.slot(spec, exec.GraphMode, 0)
		if err != nil {
			t.Fatal(err)
		}
		next := slot.spare
		if next.g == nil || next.s == nil {
			t.Fatalf("%s: the cell handed back no spare", label)
		}
		if i > 0 && (next.g != spare.g || next.s != spare.s) {
			t.Errorf("%s: the cell allocated a graph or session instead of refilling the spare", label)
		}
		if i > 0 && cells[i-1].Allocator == cfg.Allocator && next.s.Pool() != spare.s.Pool() {
			t.Errorf("%s: the cell built a new %s pool instead of resetting the spare's", label, next.s.Pool().Name())
		}
		spare = next
		if i > 0 && errors.Is(got[i-1].Err, exec.ErrIterationOOM) {
			oomBefore++
		}
		if cfg.Faults.Enabled() && !got[i].OK {
			t.Errorf("%s: the faulted cell failed: %v", label, got[i].Err)
		}
		if cfg.Faults.Enabled() {
			faulted++
		}
		if cfg.Allocator == "firstfit" {
			firstfit++
		} else {
			bfc++
		}
	}
	if oomBefore == 0 || faulted == 0 || firstfit == 0 || bfc == 0 {
		t.Errorf("the sequence covers %d cells after an OOM, %d faulted, %d firstfit and %d bfc; want each", oomBefore, faulted, firstfit, bfc)
	}
	if n := ts.builds.Load(); n != 1 {
		t.Errorf("the sequence built %d templates, want 1", n)
	}
	for i := range cells {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("cell %d: its Result changed after later cells recycled its storage", i)
		}
	}
}

// TestMaxBatchAllSharesSpare runs four searches of one model through one
// MaxBatchAll call, so their probes take and hand back the same slot's
// spare concurrently; make race runs it under the race detector. Each
// answer must equal a search whose probes all run from scratch.
func TestMaxBatchAllSharesSpare(t *testing.T) {
	var cfgs []RunConfig
	for _, sys := range []System{SystemTF, SystemVDNN, SystemOpenAIMemory, SystemCapuchin} {
		cfgs = append(cfgs, RunConfig{Model: "alexnet", System: sys, Device: smallDev()})
	}
	got := NewRunner(4).MaxBatchAll(cfgs)
	for i, cfg := range cfgs {
		want := maxBatch(cfg, func(c RunConfig) Result {
			res, _, _ := run(c, nil, nil)
			return res
		})
		if got[i] != want {
			t.Errorf("%s: MaxBatchAll answered %d, a search from scratch %d", cfg.System, got[i], want)
		}
	}
}
