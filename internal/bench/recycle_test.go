package bench

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"capuchin/internal/core"
	"capuchin/internal/exec"
	"capuchin/internal/fault"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/models"
	"capuchin/internal/obs"
)

// recycledCells is a seeded sequence of resnet50 cells for one template
// slot: every system in turn, at mixed batches, memory sizes and
// allocators, one of them under a fault plan. Cell tracedCell runs
// traced.
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
	return cells
}

// tracedCell is the recycledCells cell that runs with a Collector.
const tracedCell = 12

// TestRecycledProbeMatchesFresh drives one template slot through
// recycledCells: each cell refills the graph and session the cell before
// it handed back, and its Result must equal that of a cell run from
// scratch on a nil set, and the traced cell's JSONL that of the fresh
// run. After the sequence every earlier Result must still equal its
// fresh twin, so no Result aliases recycled storage.
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
		var gotCol, wantCol *obs.Collector
		var gotTr, wantTr obs.Tracer
		if i == tracedCell {
			gotCol, wantCol = obs.NewCollector(), obs.NewCollector()
			gotTr, wantTr = gotCol, wantCol
		}
		got[i] = ts.RunTraced(cfg, gotTr)
		want[i], _, _ = run(cfg, wantTr, nil)
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: recycled Result differs from a fresh run's\ngot:  %+v\nwant: %+v", label, got[i], want[i])
		}
		if gotCol != nil {
			g, _, _ := gotCol.AppendJSONL(nil, obs.Cursor{})
			w, _, _ := wantCol.AppendJSONL(nil, obs.Cursor{})
			if gotCol.Len() == 0 || !bytes.Equal(g, w) {
				t.Errorf("%s: recycled JSONL (%d events) differs from a fresh run's (%d events)", label, gotCol.Len(), wantCol.Len())
			}
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

// TestMaxBatchAllSharesTemplates runs four systems' searches of one
// model through one MaxBatchAll call, so they instantiate one template
// concurrently, each search refilling spares of its own; make race runs
// it under the race detector. Each answer must equal a search whose
// probes all run from scratch.
func TestMaxBatchAllSharesTemplates(t *testing.T) {
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

// TestRecycledSessionAcrossGraphs refills one session spare through
// graphs whose topology changes and returns: an instance of resnet50's
// template, one of alexnet's, a resnet50 graph built without a template,
// resnet50's template again, and last an instance of it whose session is
// a spare that RecycleSession failed to refill because the parameters
// did not fit. Each Result must equal a fresh run's on a built graph. A
// session keeps its topology tables only across instances of one
// template in one mode, so a refill that kept them across the others
// fails here.
func TestRecycledSessionAcrossGraphs(t *testing.T) {
	ts := NewTemplates()
	dev := hw.P100().WithMemory(4 * hw.GiB)
	cells := []struct {
		what  string
		cfg   RunConfig
		built bool
	}{
		{"resnet50's template", RunConfig{Model: "resnet50", System: SystemCapuchin, Batch: 128}, false},
		{"alexnet's template", RunConfig{Model: "alexnet", System: SystemCapuchin, Batch: 512}, false},
		{"a built resnet50 graph", RunConfig{Model: "resnet50", System: SystemTF, Batch: 32}, true},
		{"resnet50's template again", RunConfig{Model: "resnet50", System: SystemCapuchin, Batch: 160}, false},
		{"resnet50's template after a failed refill", RunConfig{Model: "resnet50", System: SystemTF, Batch: 48}, false},
	}
	graphOf := func(cfg RunConfig, ts *Templates) *graph.Graph {
		spec, err := models.Get(cfg.Model)
		if err != nil {
			t.Fatal(err)
		}
		g, err := ts.Graph(spec, cfg.Mode, cfg.Batch, 0)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	var spare *exec.Session
	for i, c := range cells {
		c.cfg.Device = dev
		cfg := cacheKey(c.cfg)
		if i == len(cells)-1 {
			tiny := cfg
			tiny.Device = hw.P100().WithMemory(1 << 20)
			res, s, _ := simulate(tiny, Result{Config: tiny}, graphOf(tiny, ts), spare, nil)
			if res.Err == nil || !strings.Contains(res.Err.Error(), "parameters do not fit") || s != spare {
				t.Fatalf("a refill on a 1 MiB device returned %v and a new session; the check wants a failed refill", res.Err)
			}
		}
		set := ts
		if c.built {
			set = nil
		}
		got, s, _ := simulate(cfg, Result{Config: cfg}, graphOf(cfg, set), spare, nil)
		want, _, _ := simulate(cfg, Result{Config: cfg}, graphOf(cfg, nil), nil, nil)
		if !got.OK {
			t.Fatalf("%s: %v", c.what, got.Err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the refilled session's Result differs from a fresh run's\ngot:  %+v\nwant: %+v", c.what, got, want)
		}
		if spare != nil && s != spare {
			t.Errorf("%s: the cell built a new session instead of refilling the spare", c.what)
		}
		s.Park()
		spare = s
	}
}

// TestRecycledCapuchinMatchesFresh drives one template slot through
// every Capuchin variant, each with a cell whose plan swaps, recomputes
// or both, as far as the variant may, and a cell that fits without a
// plan, alternating batches
// and variants, with a vDNN cell's policy parked in the spare halfway.
// A Capuchin cell that follows a Capuchin cell must refill that cell's
// policy, and every cell's Result, decision log and JSONL must equal
// those of a fresh run on a nil set. After the sequence every earlier
// Result must still equal its fresh twin, so no Result aliases a
// recycled plan.
func TestRecycledCapuchinMatchesFresh(t *testing.T) {
	const plans, fits = 160, 16
	dev := hw.P100().WithMemory(4 * hw.GiB)
	variants := []System{SystemCapuchin, SystemCapuchinSwap, SystemCapuchinSwapNoFA, SystemCapuchinRecompute, SystemCapuchinRecompNoCR}
	var cells []RunConfig
	for i, sys := range variants {
		batches := []int64{plans, fits}
		if i%2 == 1 {
			batches = []int64{fits, plans}
		}
		for _, b := range batches {
			cells = append(cells, RunConfig{Model: "resnet50", System: sys, Batch: b, Device: dev})
		}
		if i == 2 {
			cells = append(cells, RunConfig{Model: "resnet50", System: SystemVDNN, Batch: fits, Device: dev})
		}
	}
	spec, err := models.Get("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTemplates()
	got := make([]Result, len(cells))
	want := make([]Result, len(cells))
	var prev exec.Policy
	var recycled int
	for i, cfg := range cells {
		label := fmt.Sprintf("cell %d (%s b%d)", i, cfg.System, cfg.Batch)
		gotCol, wantCol := obs.NewCollector(), obs.NewCollector()
		got[i] = ts.RunTraced(cfg, gotCol)
		want[i] = RunTraced(cfg, wantCol)
		if !got[i].OK {
			t.Fatalf("%s: %v", label, got[i].Err)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: recycled Result differs from a fresh run's\ngot:  %+v\nwant: %+v", label, got[i], want[i])
		}
		if !reflect.DeepEqual(gotCol.Decisions(), wantCol.Decisions()) {
			t.Errorf("%s: recycled decision log differs from a fresh run's", label)
		}
		gotJSONL, _, _ := gotCol.AppendJSONL(nil, obs.Cursor{})
		wantJSONL, _, _ := wantCol.AppendJSONL(nil, obs.Cursor{})
		if !bytes.Equal(gotJSONL, wantJSONL) {
			t.Errorf("%s: recycled JSONL differs from a fresh run's", label)
		}

		slot, err := ts.slot(spec, exec.GraphMode, 0)
		if err != nil {
			t.Fatal(err)
		}
		pol := slot.spare.s.Policy()
		_, isCapuchin := pol.(*core.Capuchin)
		if _, was := prev.(*core.Capuchin); was && isCapuchin {
			if pol != prev {
				t.Errorf("%s: the cell built a new policy instead of refilling the spare's", label)
			}
			recycled++
		}
		prev = pol

		plan := got[i].Plan
		swaps := cfg.System != SystemCapuchinRecompute && cfg.System != SystemCapuchinRecompNoCR
		recomputes := cfg.System != SystemCapuchinSwap && cfg.System != SystemCapuchinSwapNoFA
		switch {
		case cfg.System == SystemVDNN:
		case cfg.Batch == fits && (!plan.Planned || plan.RequiredBytes > 0):
			t.Errorf("%s: the cell needs a plan (%v); the check wants one that fits without", label, plan)
		case cfg.Batch == plans && (plan.SwapTensors > 0 != swaps || plan.RecomputeCount > 0 != recomputes):
			t.Errorf("%s: the plan (%v) does not swap %v and recompute %v", label, plan, swaps, recomputes)
		}
	}
	if recycled != 2*len(variants)-2 {
		t.Errorf("%d cells refilled a Capuchin spare, want %d", recycled, 2*len(variants)-2)
	}
	for i := range cells {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("cell %d: its Result changed after later cells recycled its storage", i)
		}
	}
}

// TestWarmProbeCellBytes pins the bytes a max-batch probe allocates once
// its template set is warm, which an allocs/op budget cannot see: a
// 3-iteration resnet50 Capuchin cell that refills the graph, session and
// policy the cell before it handed back. A probe that rebuilds the
// tracker, the plan or the cost menus allocates hundreds of kilobytes.
// It takes the least of a few measurements, since TotalAlloc counts the
// whole process.
func TestWarmProbeCellBytes(t *testing.T) {
	const bound = 64 << 10
	ts := NewTemplates()
	var cfgs [2]RunConfig
	for i, batch := range []int64{256, 512} {
		cfgs[i] = RunConfig{Model: "resnet50", Batch: batch, System: SystemCapuchin, Device: hw.P100()}
	}
	for i := 0; i < 4; i++ {
		if r := ts.RunTraced(cfgs[i%2], nil); !r.OK || r.Plan.SwapTensors == 0 {
			t.Fatalf("warm-up cell %d: ok %v, %v; the check wants cells that plan swaps", i, r.OK, r.Plan)
		}
	}
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		r := ts.RunTraced(cfgs[i%2], nil)
		runtime.ReadMemStats(&after)
		if !r.OK {
			t.Fatal(r.Err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > bound {
		t.Errorf("a warm probe cell allocated %d bytes, want at most %d", least, bound)
	}
}

// TestRecycledVDNNMatchesFresh drives one template slot through vDNN
// cells at alternating batches: each must refill the schedule of the
// cell before it, hold the schedule a fresh build makes, and match a
// fresh run's Result, decision log and JSONL (checkRecycledSchedule).
func TestRecycledVDNNMatchesFresh(t *testing.T) {
	checkRecycledSchedule(t, SystemVDNN)
}

// TestRecycledCheckpointMatchesFresh is TestRecycledVDNNMatchesFresh for
// the OpenAI memory-mode and speed-mode checkpointing schedules.
func TestRecycledCheckpointMatchesFresh(t *testing.T) {
	checkRecycledSchedule(t, SystemOpenAIMemory)
	checkRecycledSchedule(t, SystemOpenAISpeed)
}

// checkRecycledSchedule runs sys's resnet50 cells on one template set at
// alternating batches. From the second cell on, the cell must refill the
// policy the cell before it parked. The schedule that policy holds must
// equal the one a fresh build makes for the slot's graph, and each
// cell's Result, decision log and JSONL must equal those of a fresh run
// on a nil set. Last, a spare must not be reused for another model's
// template, for a graph built without a template, or, built from such a
// graph, for a template's graph.
func checkRecycledSchedule(t *testing.T, sys System) {
	t.Helper()
	ts := NewTemplates()
	spec, err := models.Get("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	var prev exec.Policy
	for i, batch := range []int64{64, 128, 64, 128} {
		cfg := RunConfig{Model: "resnet50", System: sys, Batch: batch, Device: hw.P100()}
		label := fmt.Sprintf("%s cell %d (b%d)", sys, i, batch)
		gotCol, wantCol := obs.NewCollector(), obs.NewCollector()
		got := ts.RunTraced(cfg, gotCol)
		want := RunTraced(cfg, wantCol)
		if !got.OK {
			t.Fatalf("%s: %v", label, got.Err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recycled Result differs from a fresh run's\ngot:  %+v\nwant: %+v", label, got, want)
		}
		if !reflect.DeepEqual(gotCol.Decisions(), wantCol.Decisions()) {
			t.Errorf("%s: recycled decision log differs from a fresh run's", label)
		}
		gotJSONL, _, _ := gotCol.AppendJSONL(nil, obs.Cursor{})
		wantJSONL, _, _ := wantCol.AppendJSONL(nil, obs.Cursor{})
		if !bytes.Equal(gotJSONL, wantJSONL) {
			t.Errorf("%s: recycled JSONL differs from a fresh run's", label)
		}

		slot, err := ts.slot(spec, exec.GraphMode, 0)
		if err != nil {
			t.Fatal(err)
		}
		pol := slot.spare.s.Policy()
		if i > 0 && pol != prev {
			t.Errorf("%s: the cell built a new policy instead of refilling the spare's", label)
		}
		prev = pol
		var fresh, recycled exec.Config
		if err := fresh.UsePolicy(string(sys), slot.spare.g, nil); err != nil {
			t.Fatal(err)
		}
		if err := recycled.UsePolicy(string(sys), slot.spare.g, pol); err != nil {
			t.Fatal(err)
		}
		if recycled.Policy != pol {
			t.Errorf("%s: the spare was not refilled for its own template's graph", label)
		}
		if !reflect.DeepEqual(recycled.Policy, fresh.Policy) {
			t.Errorf("%s: the recycled schedule differs from a fresh build's", label)
		}
	}

	other, err := models.Get("vgg16")
	if err != nil {
		t.Fatal(err)
	}
	otherG, err := ts.Graph(other, exec.GraphMode, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	built, err := spec.BuildShaped(64, 0, buildOptions(exec.GraphMode))
	if err != nil {
		t.Fatal(err)
	}
	templated, err := ts.Graph(spec, exec.GraphMode, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fromBuilt exec.Config
	if err := fromBuilt.UsePolicy(string(sys), built, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		g     *graph.Graph
		spare exec.Policy
	}{
		{"another model's template", otherG, prev},
		{"a graph built without a template", built, prev},
		{"a template's graph, from a spare built without one", templated, fromBuilt.Policy},
	} {
		var ec exec.Config
		if err := ec.UsePolicy(string(sys), c.g, c.spare); err != nil {
			t.Fatal(err)
		}
		if ec.Policy == c.spare {
			t.Errorf("%s: a spare was reused for %s", sys, c.what)
		}
	}
}
