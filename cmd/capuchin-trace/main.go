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
// record per line, in emission order). Both accept a path or "-" for
// stdout.
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
// fan-out (output is byte-identical at any -jobs).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"capuchin/internal/bench"
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

	if *fleetMode {
		observeFleet(*fleetJobs, *fleetDevices, *fleetSeed, *jobs, *chrome, *prom, *events)
		return
	}

	plan, err := fault.ParsePlan(*faults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "invalid -faults spec: %v\n", err)
		os.Exit(2)
	}
	memBytes, err := hw.GiBToBytes(*memGiB)
	exitOn(2, err)
	switch *spans {
	case "", "compute", "h2d", "d2h":
	default:
		exitOn(2, fmt.Errorf("unknown -spans stream %q (want compute, h2d or d2h)", *spans))
	}
	observing := *chrome != "" || *memprof || *explain != "" || *spans != "" || *prom != "" || *events != ""
	if *devices > 1 && !observing {
		fmt.Fprintln(os.Stderr, "-devices requires an observability mode (-chrome, -memprof, -explain, -spans, -prom or -events)")
		os.Exit(2)
	}
	cfg := bench.RunConfig{
		Model:        *model,
		Batch:        *batch,
		System:       bench.System(*system),
		Device:       hw.P100().WithMemory(memBytes),
		Iterations:   *iters,
		Faults:       plan,
		RecordSpans:  *spans != "",
		Schedule:     *schedule,
		ScheduleSeed: *scheduleSeed,
		Devices:      *devices,
	}
	exitOn(2, cfg.Validate())

	var keep map[string]bool
	if *tensors != "" {
		keep = make(map[string]bool)
		for _, id := range strings.Split(*tensors, ",") {
			keep[strings.TrimSpace(id)] = true
		}
	}
	observe(cfg, exports{chrome: *chrome, memprof: *memprof, explain: *explain, spans: *spans,
		prom: *prom, events: *events, tape: !observing, keep: keep})
}

// exitOn reports err and exits with code unless err is nil: 2 for an
// invalid setting, before anything prints, 1 for a failure.
func exitOn(code int, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}
}

// outFile resolves an output flag to a writer: "-" is stdout, anything
// else is created. The returned func closes file targets.
func outFile(path string) (*os.File, func()) {
	if path == "-" {
		return os.Stdout, func() {}
	}
	f, err := os.Create(path)
	exitOn(1, err)
	return f, func() { f.Close() }
}

// writeProm writes a metrics registry in Prometheus exposition format.
func writeProm(path string, met *obs.Metrics) {
	w, done := outFile(path)
	defer done()
	exitOn(1, met.WritePrometheus(w))
}

// writeEvents writes the event log and decision audit as JSONL, in
// emission order.
func writeEvents(path string, col *obs.Collector) {
	w, done := outFile(path)
	defer done()
	b, _, _ := col.AppendJSONL(nil, obs.Cursor{})
	if _, err := w.Write(b); err != nil {
		exitOn(1, err)
	}
}

// writeChrome writes a Chrome trace-event timeline.
func writeChrome(path string, col *obs.Collector) {
	w, done := outFile(path)
	defer done()
	exitOn(1, obs.WriteChromeTrace(w, col.Events()))
	if path != "-" {
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s (load in Perfetto or chrome://tracing)\n",
			col.Len(), path)
	}
}

// observeFleet runs the flagship fleet scenario with the observability
// stack attached and emits the requested exports.
func observeFleet(fleetJobs, fleetDevices int, fleetSeed uint64, jobs int, chrome, prom, events string) {
	if chrome == "" && prom == "" && events == "" {
		fmt.Fprintln(os.Stderr, "-fleet needs at least one export: -chrome, -prom or -events")
		os.Exit(2)
	}
	col := obs.NewCollector()
	rep, met, err := bench.FleetObserved(
		bench.Options{Quick: true, Jobs: jobs},
		bench.FleetOptions{Jobs: fleetJobs, Devices: fleetDevices, Seed: fleetSeed},
		col)
	exitOn(1, err)
	fmt.Fprintf(os.Stderr, "fleet: %d jobs on %d devices: %d completed, %d kills, %d preemptions\n",
		rep.Jobs, rep.Devices, rep.Completed, rep.Kills, rep.Preemptions)
	if chrome != "" {
		writeChrome(chrome, col)
	}
	if prom != "" {
		writeProm(prom, met)
	}
	if events != "" {
		writeEvents(events, col)
	}
}

// exports names the outputs of one observed run.
type exports struct {
	chrome, explain, spans, prom, events string
	memprof                              bool
	// tape writes the run's access tape as TSV, only the accesses of
	// the tensors in keep when keep is non-nil.
	tape bool
	keep map[string]bool
}

// observe runs one cell through the bench harness, recording its event
// log, and emits the requested outputs.
func observe(cfg bench.RunConfig, x exports) {
	col := obs.NewCollector()
	// RunLive keeps the session, whose streams -spans dumps and whose
	// graph the access tape is folded against.
	res, sess, _ := bench.RunLive(cfg, col)
	if sess == nil {
		exitOn(1, res.Err) // the run failed before simulating
	}
	if res.Err != nil {
		// A failed run still has a timeline — often the one you want.
		fmt.Fprintf(os.Stderr, "run failed (%v); exports cover the partial run\n", res.Err)
	}

	if x.tape {
		tape := trace.Tape(sess.Graph(), col.Events(), col.Decisions())
		if x.keep != nil {
			tape = slices.DeleteFunc(tape, func(e trace.Event) bool { return !x.keep[e.TensorID] })
		}
		exitOn(1, trace.WriteTSV(os.Stdout, tape))
	}

	if x.spans != "" {
		stream, h2d, d2h := sess.Streams()
		switch x.spans {
		case "h2d":
			stream = h2d
		case "d2h":
			stream = d2h
		}
		exitOn(1, trace.WriteSpansTSV(os.Stdout, x.spans, stream.Spans()))
	}

	if x.chrome != "" {
		writeChrome(x.chrome, col)
	}
	if x.prom != "" {
		writeProm(x.prom, obs.BuildMetrics(col.Events(), col.Decisions()))
	}
	if x.events != "" {
		writeEvents(x.events, col)
	}

	if x.memprof {
		exitOn(1, obs.BuildMemProfile(col.Events()).WriteReport(os.Stdout))
	}

	if x.explain != "" {
		subject := x.explain
		decisions := col.Decisions()
		if subject == "auto" {
			subjects := obs.ExplainTensors(decisions)
			if len(subjects) == 0 {
				exitOn(1, fmt.Errorf("no policy decisions recorded: the %s run never came under memory pressure (try a smaller -mem)", cfg.System))
			}
			subject = subjects[0]
		}
		exitOn(1, obs.WriteExplain(os.Stdout, subject, decisions, col.Events()))
	}
	if res.Err != nil {
		os.Exit(1) // a failed run, reported above, after its exports
	}
}
