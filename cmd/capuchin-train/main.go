// Command capuchin-train runs one simulated training job and prints
// per-iteration statistics: the quickest way to see a policy's behaviour
// on a single workload.
//
// Usage:
//
//	capuchin-train -model resnet50 -batch 400 -system capuchin [-iters 8]
//	               [-mode graph|eager] [-device p100|v100|t4] [-mem GiB]
//	               [-prom out.prom] [-events out.jsonl]
//
// -prom writes the run's metrics registry (kernel/transfer/stall
// histograms, swap and fault counters) in Prometheus text exposition
// format; -events streams the event log and policy decision audit as
// JSONL, in emission order. Both attach the observability stack to the
// run, which is outcome-neutral. Every path-valued output, -save-plan
// too, follows the cli package's rule: "-" is stdout, and a file that
// cannot be written or closed exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"capuchin/internal/bench"
	"capuchin/internal/cli"
	"capuchin/internal/core"
	"capuchin/internal/exec"
	"capuchin/internal/hw"
	"capuchin/internal/models"
	"capuchin/internal/obs"
)

func main() {
	model := flag.String("model", "resnet50", "workload: "+strings.Join(models.Names(), ", "))
	batch := flag.Int64("batch", 256, "batch size")
	system := flag.String("system", "capuchin", "memory system: "+strings.Join(bench.SystemNames(), ", "))
	iters := flag.Int("iters", 8, "iterations to simulate")
	mode := flag.String("mode", "graph", "execution mode: graph or eager")
	device := flag.String("device", "p100", "device model: p100, v100, t4")
	mem := flag.Float64("mem", 0, "override device memory in GiB, fractions allowed (0 = device default)")
	showPlan := flag.Bool("plan", false, "dump Capuchin's per-tensor plan after the run")
	savePlan := flag.String("save-plan", "", "write Capuchin's plan as JSON to this file after the run")
	prom := flag.String("prom", "", "write the run's metrics in Prometheus text exposition format (\"-\" = stdout)")
	events := flag.String("events", "", "stream the event and decision log as JSONL (\"-\" = stdout)")
	flag.Parse()

	dev, err := hw.ByName(*device)
	cli.Invalid(err)
	memBytes, err := hw.GiBToBytes(*mem)
	cli.Invalid(err)
	if memBytes > 0 {
		dev = dev.WithMemory(memBytes)
	}
	m, err := exec.ParseMode(*mode)
	cli.Invalid(err)
	cfg := bench.RunConfig{
		Model:      *model,
		Batch:      *batch,
		System:     bench.System(*system),
		Device:     dev,
		Mode:       m,
		Iterations: *iters,
	}
	cli.Invalid(cfg.Validate())
	if *savePlan != "" && !capuchinSystem(cfg) {
		cli.Invalid(errors.New("-save-plan applies to capuchin systems only"))
	}
	x := cli.Exports{Prom: *prom, Events: *events}

	// -prom and -events are folded from the run's event log, so only they
	// trace the run.
	var col *obs.Collector
	var tr obs.Tracer
	if *prom != "" || *events != "" {
		col = obs.NewCollector()
		tr = col
	}
	// RunLive keeps the policy, which -plan and -save-plan inspect.
	r, sess, pol := bench.RunLive(cfg, tr)
	if sess == nil {
		col = nil // the run failed before simulating: nothing to export
	}
	fmt.Printf("%s, batch %d, %s mode, %s (%.1f GiB)\n",
		*model, *batch, m, dev.Name, float64(dev.MemoryBytes)/float64(hw.GiB))
	for i, st := range r.Stats {
		if !r.OK && i == len(r.Stats)-1 {
			fmt.Printf("  %s (failed)\n", st) // a failed iteration has no throughput
			continue
		}
		fmt.Printf("  %s (%.1f samples/s)\n", st, st.Throughput(*batch))
	}
	if !r.OK {
		// The exports of a failed run explain the failure: write them
		// first, then exit 1.
		fmt.Printf("FAILED: %v\n", r.Err)
		x.Write(col, nil, r.Err)
	}
	fmt.Printf("steady state: %.1f samples/s, iteration %v, device peak %.2f GiB, host peak %.2f GiB\n",
		r.Throughput, r.Steady.Duration,
		float64(r.Steady.PeakBytes)/float64(hw.GiB),
		float64(r.Steady.HostPeak)/float64(hw.GiB))
	if r.Plan.Planned {
		fmt.Println(r.Plan)
	}
	if *showPlan {
		if cap, ok := pol.(*core.Capuchin); ok {
			fmt.Println()
			cli.Fail(cap.WritePlan(os.Stdout))
		} else {
			fmt.Println("(-plan applies to capuchin systems only)")
		}
	}
	if *savePlan != "" {
		cli.Write(*savePlan, pol.(*core.Capuchin).ExportPlan)
		fmt.Printf("plan written to %s\n", *savePlan)
	}
	x.Write(col, nil, nil)
}

// capuchinSystem reports whether cfg's system builds a Capuchin policy,
// whose plan -save-plan exports. Only a graph-agnostic policy builds
// without a graph, and every Capuchin variant is one.
func capuchinSystem(cfg bench.RunConfig) bool {
	spec, _ := exec.LookupPolicy(string(cfg.System))
	if !spec.GraphAgnostic {
		return false
	}
	pol, err := spec.Build(exec.BuildContext{Device: cfg.Device})
	_, ok := pol.(*core.Capuchin)
	return err == nil && ok
}
