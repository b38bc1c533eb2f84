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
// run, which is outcome-neutral, and accept "-" for stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"capuchin/internal/bench"
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
	exitOn(2, err)
	memBytes, err := hw.GiBToBytes(*mem)
	exitOn(2, err)
	if memBytes > 0 {
		dev = dev.WithMemory(memBytes)
	}
	m, err := exec.ParseMode(*mode)
	exitOn(2, err)
	cfg := bench.RunConfig{
		Model:      *model,
		Batch:      *batch,
		System:     bench.System(*system),
		Device:     dev,
		Mode:       m,
		Iterations: *iters,
	}
	exitOn(2, cfg.Validate())

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
		exports(col, *prom, *events)
		os.Exit(1)
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
			exitOn(1, cap.WritePlan(os.Stdout))
		} else {
			fmt.Println("(-plan applies to capuchin systems only)")
		}
	}
	if *savePlan != "" {
		cap, ok := pol.(*core.Capuchin)
		if !ok {
			fmt.Fprintln(os.Stderr, "-save-plan applies to capuchin systems only")
			os.Exit(2)
		}
		f, err := os.Create(*savePlan)
		exitOn(1, err)
		defer f.Close()
		exitOn(1, cap.ExportPlan(f))
		fmt.Printf("plan written to %s\n", *savePlan)
	}
	exports(col, *prom, *events)
}

// exports writes the requested observability artifacts of a run from
// its event log col: the metrics folded from it to prom and the log
// itself to events, each when named. A nil col writes nothing.
func exports(col *obs.Collector, prom, events string) {
	if col == nil {
		return
	}
	if prom != "" {
		met := obs.BuildMetrics(col.Events(), col.Decisions())
		export(prom, func(w *os.File) error { return met.WritePrometheus(w) })
	}
	if events != "" {
		export(events, func(w *os.File) error {
			b, _, _ := col.AppendJSONL(nil, obs.Cursor{})
			_, err := w.Write(b)
			return err
		})
	}
}

// exitOn reports err and exits with code unless err is nil: 2 for an
// invalid setting, before anything prints, 1 for a failure.
func exitOn(code int, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}
}

// export writes one observability artifact to a path or stdout ("-").
func export(path string, write func(*os.File) error) {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		exitOn(1, err)
		defer f.Close()
		w = f
	}
	exitOn(1, write(w))
}
