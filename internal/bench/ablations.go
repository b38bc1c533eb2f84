package bench

import (
	"fmt"
	"sync"
)

// AblationDecoupledSwap isolates the decoupled computation/swapping
// optimization (§5.3): the same Capuchin swap plan executed with and
// without layer-wise swap-out synchronization.
func AblationDecoupledSwap(o Options) *Table {
	o = o.fill()
	t := &Table{
		Title:  "Ablation: decoupled vs coupled swap-out synchronization (ResNet-50)",
		Header: []string{"batch", "coupled (img/s)", "decoupled (img/s)", "gain"},
	}
	tfMax := o.Runner.MaxBatch(RunConfig{Model: "resnet50", System: SystemTF, Device: o.Device})
	batches := []int64{tfMax * 5 / 4, tfMax * 7 / 4}
	var cfgs []RunConfig
	for _, b := range batches {
		cfgs = append(cfgs,
			RunConfig{Model: "resnet50", Batch: b, System: SystemCapuchinSwap,
				Device: o.Device, Iterations: o.Iterations, ForceCoupledSwap: true},
			RunConfig{Model: "resnet50", Batch: b, System: SystemCapuchinSwap,
				Device: o.Device, Iterations: o.Iterations})
	}
	cells := o.Runner.RunAll(cfgs)
	for i, b := range batches {
		coupled, decoupled := cells[2*i], cells[2*i+1]
		gain := "-"
		if coupled.OK && decoupled.OK && coupled.Throughput > 0 {
			gain = fmt.Sprintf("%.1f%%", (decoupled.Throughput/coupled.Throughput-1)*100)
		}
		t.AddRow(fmt.Sprintf("%d", b), speedCell(coupled), speedCell(decoupled), gain)
	}
	return t
}

// AblationFeedback isolates the feedback-driven in-trigger adjustment
// (§4.4) on InceptionV3.
func AblationFeedback(o Options) *Table {
	o = o.fill()
	t := &Table{
		Title:  "Ablation: feedback-driven in-trigger adjustment (InceptionV3)",
		Header: []string{"batch", "no feedback (img/s)", "feedback (img/s)", "gain"},
	}
	tfMax := o.Runner.MaxBatch(RunConfig{Model: "inceptionv3", System: SystemTF, Device: o.Device})
	iters := o.Iterations
	if iters < 8 {
		iters = 8 // feedback needs iterations to converge
	}
	batches := []int64{tfMax * 5 / 4, tfMax * 2}
	var cfgs []RunConfig
	for _, b := range batches {
		cfgs = append(cfgs,
			RunConfig{Model: "inceptionv3", Batch: b, System: SystemCapuchinSwapNoFA,
				Device: o.Device, Iterations: iters},
			RunConfig{Model: "inceptionv3", Batch: b, System: SystemCapuchinSwap,
				Device: o.Device, Iterations: iters})
	}
	cells := o.Runner.RunAll(cfgs)
	for i, b := range batches {
		off, on := cells[2*i], cells[2*i+1]
		gain := "-"
		if off.OK && on.OK && off.Throughput > 0 {
			gain = fmt.Sprintf("%.1f%%", (on.Throughput/off.Throughput-1)*100)
		}
		t.AddRow(fmt.Sprintf("%d", b), speedCell(off), speedCell(on), gain)
	}
	return t
}

// AblationCollectiveRecompute isolates collective recomputation (§5.3).
func AblationCollectiveRecompute(o Options) *Table {
	o = o.fill()
	t := &Table{
		Title:  "Ablation: collective recomputation (ResNet-50, recompute-only)",
		Header: []string{"batch", "without CR (img/s)", "with CR (img/s)", "replays w/o CR", "replays w/ CR"},
	}
	tfMax := o.Runner.MaxBatch(RunConfig{Model: "resnet50", System: SystemTF, Device: o.Device})
	batches := []int64{tfMax * 5 / 4, tfMax * 7 / 4}
	var cfgs []RunConfig
	for _, b := range batches {
		cfgs = append(cfgs,
			RunConfig{Model: "resnet50", Batch: b, System: SystemCapuchinRecompNoCR,
				Device: o.Device, Iterations: o.Iterations},
			RunConfig{Model: "resnet50", Batch: b, System: SystemCapuchinRecompute,
				Device: o.Device, Iterations: o.Iterations})
	}
	cells := o.Runner.RunAll(cfgs)
	for i, b := range batches {
		off, on := cells[2*i], cells[2*i+1]
		t.AddRow(fmt.Sprintf("%d", b), speedCell(off), speedCell(on),
			fmt.Sprintf("%d", off.Steady.RecomputeCount), fmt.Sprintf("%d", on.Steady.RecomputeCount))
	}
	return t
}

// AblationHybrid compares the full hybrid policy against swap-only and
// recompute-only at matched memory pressure, the design choice at the
// heart of Algorithm 1.
func AblationHybrid(o Options) *Table {
	o = o.fill()
	t := &Table{
		Title:  "Ablation: hybrid vs swap-only vs recompute-only (ResNet-50)",
		Header: []string{"batch", "swap-only", "recompute-only", "hybrid"},
	}
	tfMax := o.Runner.MaxBatch(RunConfig{Model: "resnet50", System: SystemTF, Device: o.Device})
	batches := []int64{tfMax * 3 / 2, tfMax * 3}
	systems := []System{SystemCapuchinSwap, SystemCapuchinRecompute, SystemCapuchin}
	var cfgs []RunConfig
	for _, b := range batches {
		for _, sys := range systems {
			cfgs = append(cfgs, RunConfig{Model: "resnet50", Batch: b, System: sys,
				Device: o.Device, Iterations: o.Iterations})
		}
	}
	cells := o.Runner.RunAll(cfgs)
	for i, b := range batches {
		row := []string{fmt.Sprintf("%d", b)}
		for j := range systems {
			row = append(row, speedCell(cells[i*len(systems)+j]))
		}
		t.AddRow(row...)
	}
	return t
}

// AblationAllocator compares the BFC allocator with a naive first-fit
// free list under Capuchin's churn.
func AblationAllocator(o Options) *Table {
	o = o.fill()
	t := &Table{
		Title:  "Ablation: BFC vs first-fit allocator (ResNet-50, Capuchin)",
		Header: []string{"allocator", "max batch", "img/s at 1.5x TF max"},
	}
	tfMax := o.Runner.MaxBatch(RunConfig{Model: "resnet50", System: SystemTF, Device: o.Device})
	b := tfMax * 3 / 2
	allocs := []string{"bfc", "firstfit"}
	var mbCfgs, runCfgs []RunConfig
	for _, alloc := range allocs {
		mbCfgs = append(mbCfgs, RunConfig{Model: "resnet50", System: SystemCapuchin,
			Device: o.Device, Allocator: alloc})
		runCfgs = append(runCfgs, RunConfig{Model: "resnet50", Batch: b, System: SystemCapuchin,
			Device: o.Device, Iterations: o.Iterations, Allocator: alloc})
	}
	maxes := o.Runner.MaxBatchAll(mbCfgs)
	runs := o.Runner.RunAll(runCfgs)
	for i, alloc := range allocs {
		t.AddRow(alloc, maxBatchCell(maxes[i]), speedCell(runs[i]))
	}
	return t
}

// Ablations runs the full ablation suite. The five studies execute
// concurrently on the shared Runner; the returned order is fixed.
func Ablations(o Options) []*Table {
	o = o.fill()
	gens := []func() *Table{
		func() *Table { return AblationDecoupledSwap(o) },
		func() *Table { return AblationFeedback(o) },
		func() *Table { return AblationCollectiveRecompute(o) },
		func() *Table { return AblationHybrid(o) },
		func() *Table { return AblationAllocator(o) },
	}
	out := make([]*Table, len(gens))
	var wg sync.WaitGroup
	for i, g := range gens {
		wg.Add(1)
		go func(i int, g func() *Table) {
			defer wg.Done()
			out[i] = g()
		}(i, g)
	}
	wg.Wait()
	return out
}
