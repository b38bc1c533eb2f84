// Command capuchin-trace inspects single runs: tensor access traces and
// stream timelines as TSV (the raw material for the paper's Fig. 1 and
// Fig. 3), plus the deep-observability exports — Perfetto-compatible
// Chrome traces, memory profiles with peak attribution, and the policy
// decision audit log.
//
// Usage:
//
//	capuchin-trace -model resnet50 -batch 32 -iters 3 [-tensors id1,id2]
//	               [-spans compute|h2d|d2h] [-system capuchin] [-mem GiB]
//	               [-faults spec] [-schedule kind] [-schedule-seed N]
//	               [-chrome out.json] [-memprof] [-explain tensor|auto]
//	               [-devices N] [-prom out.prom] [-events out.jsonl]
//	capuchin-trace -fleet [-fleet-jobs N] [-fleet-devices N] [-fleet-seed N]
//	               [-chrome out.json] [-prom out.prom] [-events out.jsonl]
//	               [-jobs N]
//
// -devices N simulates N data-parallel replicas over a shared PCIe-ring
// interconnect (observability modes only). The Chrome trace renders one
// Perfetto process per replica plus an interconnect lane carrying the
// ring all-reduce bucket spans; the decision audit records the
// comm-window input of every comm-aware swap decision.
//
// Every mode runs the workload through the bench harness with a
// Collector attached, so -system accepts every system the paper compares
// (tf-ori, vdnn, superneurons, openai-m, openai-s, capuchin and its
// ablations), and a failed run writes what it recorded before exiting 1.
// Without an observability flag the output is the run's access tape as
// TSV, folded from its event log (trace.Tape): one row per access the
// policy saw, -tensors keeping only the listed tensors' rows.
//
// -schedule routes the run through the dynamic workload engine: tensor
// shapes drift between iterations (constant, batch, seq or mixed drift)
// and Capuchin re-plans online per shape signature. Works in every mode —
// the access TSV follows the run across its signatures' sessions, the
// Chrome trace shows the shape-switch and re-plan markers. -schedule-seed
// picks the sampler seed.
//
// -chrome writes Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing: one lane per stream, memory counter tracks, and
// instant markers for faults, retries and OOM recoveries. -memprof prints
// per-tensor peak attribution and the fragmentation timeline. -explain
// prints every policy decision that touched a tensor ("auto" picks the
// first tensor the policy acted on).
// -faults takes the same spec as capuchin-bench (see fault.ParsePlan).
//
// -prom and -events attach to any observability run: -prom writes the
// run's metrics registry in Prometheus text exposition format 0.0.4,
// -events streams the full event and decision log as JSONL (one typed
// record per line, in emission order). -chrome, -prom and -events follow
// the cli package's output rule: "-" is stdout, and a file that cannot be
// written or closed exits 1.
//
// -fleet switches to the fleet timeline: it runs the flagship
// multi-tenant scenario (predictive admission, capuchin-managed jobs)
// with the observability stack attached. The Chrome trace renders one
// Perfetto process per device plus a scheduler lane: per-job lifecycle
// spans (queued, warmup, running), reserved/free-memory and queue-depth
// counter tracks, and instant markers for admissions, preemptions and
// OOM kills. -prom exposes the fleet/* counters and per-class
// queue-wait/JCT histograms; -events streams the same timeline plus the
// scheduler's decision audit. -fleet-jobs, -fleet-devices and
// -fleet-seed size the scenario; -jobs parallelizes the profiling
// fan-out (output is byte-identical at any -jobs). A negative -jobs,
// -fleet-jobs or -fleet-devices exits 2 before anything runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"capuchin/internal/bench"
	"capuchin/internal/cli"
	"capuchin/internal/fault"
	"capuchin/internal/hw"
	"capuchin/internal/models"
	"capuchin/internal/obs"
	"capuchin/internal/trace"
)

func main() {
	model := flag.String("model", "resnet50", "workload: "+strings.Join(models.Names(), ", "))
	batch := flag.Int64("batch", 32, "batch size")
	iters := flag.Int("iters", 3, "iterations to trace")
	tensors := flag.String("tensors", "", "comma-separated tensor IDs to trace (empty = all)")
	spans := flag.String("spans", "", "dump stream spans instead: compute, h2d or d2h")
	memGiB := flag.Float64("mem", 64, "device memory in GiB, fractions allowed (large default = no pressure)")
	system := flag.String("system", "tf-ori", "memory-management system: "+strings.Join(bench.SystemNames(), ", "))
	faults := flag.String("faults", "", "fault-injection plan: \"default\", \"off\", or key=value pairs")
	chrome := flag.String("chrome", "", "write a Chrome trace-event JSON timeline to this file (\"-\" = stdout)")
	memprof := flag.Bool("memprof", false, "print the memory profile (peak attribution, fragmentation)")
	explain := flag.String("explain", "", "print the policy decision history for a tensor (\"auto\" = first acted-on tensor)")
	schedule := flag.String("schedule", "", "dynamic shape schedule: constant, batch, seq or mixed (\"\" = static run)")
	scheduleSeed := flag.Uint64("schedule-seed", 1, "seed for the shape schedule's deterministic sampler")
	devices := flag.Int("devices", 1, "data-parallel replica count (observability modes only)")
	prom := flag.String("prom", "", "write the run's metrics in Prometheus text exposition format (\"-\" = stdout)")
	events := flag.String("events", "", "stream the event and decision log as JSONL (\"-\" = stdout)")
	fleetMode := flag.Bool("fleet", false, "trace the multi-tenant fleet scenario instead of a single run")
	fleetJobs := flag.Int("fleet-jobs", 60, "fleet mode: arrival-stream length")
	fleetDevices := flag.Int("fleet-devices", 4, "fleet mode: simulated device count")
	fleetSeed := flag.Uint64("fleet-seed", 1, "fleet mode: arrival-stream seed")
	jobs := flag.Int("jobs", 0, "fleet mode: parallel workers for the profiling fan-out (0 = GOMAXPROCS)")
	flag.Parse()
	cli.Counts("jobs", "fleet-jobs", "fleet-devices")

	if *fleetMode {
		observeFleet(*fleetJobs, *fleetDevices, *fleetSeed, *jobs,
			cli.Exports{Chrome: *chrome, Prom: *prom, Events: *events})
		return
	}

	plan, err := fault.ParsePlan(*faults)
	if err != nil {
		cli.Invalid(fmt.Errorf("invalid -faults spec: %w", err))
	}
	memBytes, err := hw.GiBToBytes(*memGiB)
	cli.Invalid(err)
	switch *spans {
	case "", "compute", "h2d", "d2h":
	default:
		cli.Invalid(fmt.Errorf("unknown -spans stream %q (want compute, h2d or d2h)", *spans))
	}
	observing := *chrome != "" || *memprof || *explain != "" || *spans != "" || *prom != "" || *events != ""
	if *devices > 1 && !observing {
		cli.Invalid(errors.New("-devices requires an observability mode (-chrome, -memprof, -explain, -spans, -prom or -events)"))
	}
	cfg := bench.RunConfig{
		Model:        *model,
		Batch:        *batch,
		System:       bench.System(*system),
		Device:       hw.P100().WithMemory(memBytes),
		Iterations:   *iters,
		Faults:       plan,
		Schedule:     *schedule,
		ScheduleSeed: *scheduleSeed,
		Devices:      *devices,
	}
	cli.Invalid(cfg.Validate())

	var keep map[string]bool
	if *tensors != "" {
		keep = make(map[string]bool)
		for _, id := range strings.Split(*tensors, ",") {
			keep[strings.TrimSpace(id)] = true
		}
	}
	observe(cfg, !observing, keep, *spans,
		cli.Exports{Chrome: *chrome, Prom: *prom, Events: *events, MemProf: *memprof, Explain: *explain})
}

// observeFleet runs the flagship fleet scenario with the observability
// stack attached and writes the requested exports.
func observeFleet(fleetJobs, fleetDevices int, fleetSeed uint64, jobs int, x cli.Exports) {
	if x.Chrome == "" && x.Prom == "" && x.Events == "" {
		cli.Invalid(errors.New("-fleet needs at least one export: -chrome, -prom or -events"))
	}
	col := obs.NewCollector()
	rep, met, err := bench.FleetObserved(
		bench.Options{Quick: true, Jobs: jobs},
		bench.FleetOptions{Jobs: fleetJobs, Devices: fleetDevices, Seed: fleetSeed},
		col)
	cli.Fail(err)
	fmt.Fprintf(os.Stderr, "fleet: %d jobs on %d devices: %d completed, %d kills, %d preemptions\n",
		rep.Jobs, rep.Devices, rep.Completed, rep.Kills, rep.Preemptions)
	x.Write(col, met, nil)
}

// observe runs one cell through the bench harness, recording its event
// log, and writes the requested outputs: the access tape as TSV when
// tape is set (only the accesses of the tensors in keep when keep is
// non-nil), the spans of the stream spans names, then x.
func observe(cfg bench.RunConfig, tape bool, keep map[string]bool, spans string, x cli.Exports) {
	col := obs.NewCollector()
	// RunLive keeps the session, whose graph the access tape is folded
	// against.
	res, sess, _ := bench.RunLive(cfg, col)
	if sess == nil {
		cli.Fail(res.Err) // the run failed before simulating
	}

	if tape {
		t := trace.Tape(sess.Graph(), col.Events(), col.Decisions())
		if keep != nil {
			t = slices.DeleteFunc(t, func(e trace.Event) bool { return !keep[e.TensorID] })
		}
		cli.Fail(trace.WriteTSV(os.Stdout, t))
	}

	if spans != "" {
		cli.Fail(trace.WriteSpansTSV(os.Stdout, spans, trace.Spans(col.Events(), col.Decisions(), spans)))
	}
	// A failed run still has a timeline — often the one you want.
	x.Write(col, nil, res.Err)
}
