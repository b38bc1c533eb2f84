// Command capuchin-bench regenerates the tables and figures of the
// Capuchin paper's evaluation from the simulator.
//
// Usage:
//
//	capuchin-bench [-exp all|resilience|fig1|fig2|fig3|fig8a|fig8b|table2|table3|fig9|fig10|overhead|
//	                     capacity|extensions|sensitivity|ablations|dynamic|scale|arena|fleet]
//	               [-device p100|v100|t4] [-mem GiB] [-iters N] [-jobs N] [-quick] [-markdown|-tsv]
//	               [-faults spec] [-profile] [-schedule kind] [-schedule-seed N] [-devices list]
//	               [-fleet-jobs N] [-fleet-devices N] [-fleet-seed N] [-fleet-json path]
//	               [-fleet-trace path] [-meta-date YYYY-MM-DD]
//
// -exp fleet runs the multi-tenant fleet simulator: a seeded stochastic
// arrival stream of heterogeneous training jobs (tenant classes
// CRITICAL/HIGH/LOW) scheduled onto simulated devices backed by real
// allocator pools, comparing admit-all scheduling against
// OOM-prediction admission control (a warmup-iteration sandbox predicts
// each job's peak) and against predictive admission with
// Capuchin-managed jobs (oversized jobs run under a memory cap instead
// of being killed or rejected). -fleet-jobs, -fleet-devices and
// -fleet-seed size and seed the arrival stream; -fleet-json also writes
// the three-scenario comparison as machine-readable JSON ("-" = stdout,
// after the table), an artifact
// `capuchin-regress FILE` gates as a fleet baseline. The fleet is
// a discrete-event simulation, fully determined by its seed: identical
// flags reproduce byte-identical tables at any -jobs value.
//
// -fleet-trace additionally replays the flagship scenario (predictive
// admission, capuchin-managed jobs) with the fleet tracer attached and
// writes its Perfetto-loadable Chrome timeline — per-device processes,
// per-job lifecycle spans, memory and queue-depth counter tracks.
// Tracing is outcome-neutral, so the table and JSON are unchanged.
//
// Every JSON artifact embeds a meta provenance block (tool, seed,
// toolchain, semantic flags) that cmd/capuchin-regress validates and
// reads the reproduction parameters from. The block is deterministic
// for a fixed checkout; -meta-date opts into stamping a wall-clock
// date, which trades away reproduction-time byte equality.
//
// -exp arena runs the policy tournament: every rival registered in the
// exec policy registry (TF-ori, vDNN, SuperNeurons, OpenAI checkpointing,
// Capuchin, h-DTR, chunk-based placement) across a model set and a
// memory-cap ladder, reporting each policy's maximum batch plus its
// iteration time, swap and recompute traffic at a shared probe batch 25%
// beyond the unmanaged maximum. Policies self-register, so a new rival
// appears here without harness changes; its correctness is enforced
// separately by the conformance suite (internal/policy/conformance).
//
// -exp scale evaluates multi-GPU data-parallel training: N replicas over
// a shared PCIe-ring interconnect with a per-iteration gradient barrier,
// comparing comm-aware swap scheduling (swaps deferred past predicted
// all-reduce windows) against comm-oblivious scheduling. -devices narrows
// the replica-count sweep (comma-separated whole numbers from 1 to 64,
// e.g. "1,2,4").
//
// -exp dynamic evaluates dynamic-shape training (§3): workloads whose
// tensor geometry drifts between iterations, with Capuchin re-planning
// online per shape signature. -schedule picks the drift kind (constant,
// batch, seq, mixed) and -schedule-seed the deterministic sampler seed;
// both only affect the dynamic experiment, but a -schedule that the
// experiment's resnet50 cells cannot follow (an unknown kind, or seq and
// mixed, which need a sequence axis) exits 2 before any experiment runs.
//
// -profile attaches the observability stack to every simulated cell and
// prints the sweep-wide metrics aggregate (kernel/transfer/stall latency
// histograms, swap and fault counters) to stderr after the tables.
// Tracing is outcome-neutral, so the tables themselves are unchanged.
//
// -faults selects the deterministic fault-injection plan used by the
// resilience experiment. The spec is "default", "off", or comma-separated
// key=value pairs (seed=N, transfer=R, retries=N, backoff=USEC,
// degrade=F, degrade-period=MS, degrade-window=MS, kernel=R,
// kernel-factor=F, alloc=R, host=R). Identical seeds reproduce identical
// tables; the paper-reproduction experiments always run fault-free.
//
// Experiments run on the concurrent engine: -jobs bounds simultaneous
// simulations (default GOMAXPROCS) and a config-keyed cache deduplicates
// cells shared between experiments. The simulator is deterministic, so
// the output is byte-identical at every -jobs value. A negative -jobs,
// -fleet-jobs or -fleet-devices exits 2 before any experiment runs.
//
// Each experiment prints a table with a note recalling the paper's
// reported numbers for comparison, as aligned text, Markdown (-markdown)
// or, for a single experiment, tab-separated values (-tsv); -tsv with
// -markdown or with -exp all exits 2. -fleet-json and -fleet-trace follow
// the cli package's output rule: "-" is stdout, and a file that cannot be
// written or closed exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"capuchin/internal/bench"
	"capuchin/internal/cli"
	"capuchin/internal/fault"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
)

func main() {
	names := []string{"all", "resilience"}
	for _, e := range bench.Experiments {
		names = append(names, e.Name)
	}
	exp := flag.String("exp", "all", "experiment: "+strings.Join(names, ", "))
	device := flag.String("device", "p100", "device model: p100, v100, t4")
	mem := flag.Float64("mem", 0, "override device memory in GiB, fractions allowed (0 = device default)")
	iters := flag.Int("iters", 0, "iterations per timed run (0 = default 8)")
	jobs := flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial); output is identical at any value")
	quick := flag.Bool("quick", false, "trimmed sweeps for a fast smoke run")
	markdown := flag.Bool("markdown", false, "emit Markdown tables instead of aligned text")
	tsv := flag.Bool("tsv", false, "emit tab-separated values (plot-ready; single experiments only)")
	faults := flag.String("faults", "", "fault-injection plan for -exp resilience: \"default\", \"off\", or key=value pairs (see package doc)")
	profile := flag.Bool("profile", false, "profile every cell and print the aggregate metrics to stderr")
	schedule := flag.String("schedule", "", "shape-drift kind for -exp dynamic: constant, batch, seq, mixed (\"\" = batch)")
	scheduleSeed := flag.Uint64("schedule-seed", 0, "seed for the dynamic experiment's shape sampler (0 = 1)")
	devices := flag.String("devices", "", "replica counts for -exp scale, comma-separated (\"\" = 1,2,4,8; quick 1,2)")
	fleetJobs := flag.Int("fleet-jobs", 0, "arrival-stream length for -exp fleet (0 = 1200; quick 250)")
	fleetDevices := flag.Int("fleet-devices", 0, "simulated device count for -exp fleet (0 = 48; quick 8)")
	fleetSeed := flag.Uint64("fleet-seed", 0, "arrival-stream seed for -exp fleet (0 = 1)")
	fleetJSON := flag.String("fleet-json", "", "also write the -exp fleet comparison as JSON to this path")
	fleetTrace := flag.String("fleet-trace", "", "also write a Chrome trace of the -exp fleet flagship scenario to this path")
	metaDate := flag.String("meta-date", "", "stamp this date (YYYY-MM-DD) into the JSON artifact's meta block (default: omitted for byte-reproducibility)")
	flag.Parse()

	cli.Counts("jobs", "fleet-jobs", "fleet-devices")
	// resilience and fleet take inputs no other generator takes (-faults,
	// and the fleet flags and artifacts), so they keep their own branch.
	name := strings.ToLower(*exp)
	var gen func(bench.Options) []*bench.Table
	switch name {
	case "all", "resilience", "fleet":
	default:
		for _, e := range bench.Experiments {
			if e.Name == name {
				gen = e.Tables
			}
		}
		if gen == nil {
			cli.Invalid(fmt.Errorf("unknown experiment %q (want %s)", *exp, strings.Join(names, ", ")))
		}
	}
	switch {
	case *tsv && *markdown:
		cli.Invalid(errors.New("-tsv and -markdown are exclusive"))
	case *tsv && name == "all":
		cli.Invalid(errors.New("-tsv takes a single experiment, not -exp all"))
	}
	deviceCounts, err := parseDevices(*devices)
	if err != nil {
		cli.Invalid(fmt.Errorf("invalid -devices list: %w", err))
	}
	plan, err := fault.ParsePlan(*faults)
	if err != nil {
		cli.Invalid(fmt.Errorf("invalid -faults spec: %w", err))
	}

	dev, err := hw.ByName(*device)
	cli.Invalid(err)
	memBytes, err := hw.GiBToBytes(*mem)
	cli.Invalid(err)
	if memBytes > 0 {
		dev = dev.WithMemory(memBytes)
	}
	// The experiments run their cells on this device, or on copies with
	// swept memory, for these iterations, the dynamic experiment drives
	// resnet50 through -schedule and the scaling experiment runs it on
	// each -devices count: validating one cell rejects a bad -mem,
	// -iters, -schedule or -devices before any table prints. tf-ori
	// follows any schedule, so the cell can carry it; a schedule is
	// single-device, so the counts are checked without it.
	cell := bench.RunConfig{Model: "resnet50", Batch: 1, System: bench.SystemTF,
		Device: dev, Iterations: *iters, Schedule: *schedule}
	cli.Invalid(cell.Validate())
	cell.Schedule = ""
	for _, n := range deviceCounts {
		cell.Devices = n
		cli.Invalid(cell.Validate())
	}
	o := bench.Options{Device: dev, Iterations: *iters, Quick: *quick, Jobs: *jobs,
		Schedule: *schedule, ScheduleSeed: *scheduleSeed, Devices: deviceCounts}
	if *profile {
		o.Runner = bench.NewRunner(*jobs)
		o.Runner.EnableProfiling()
		defer func() {
			fmt.Fprintln(os.Stderr)
			if err := o.Runner.Metrics().WriteText(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	write := func(ts ...*bench.Table) {
		for _, t := range ts {
			switch {
			case *tsv:
				cli.Fail(t.WriteTSV(os.Stdout))
			case *markdown:
				cli.Fail(t.WriteMarkdown(os.Stdout))
			default:
				cli.Fail(t.WriteText(os.Stdout))
			}
		}
	}

	switch name {
	case "all":
		write(bench.AllTables(o)...)
	case "resilience":
		write(bench.Resilience(o, plan))
	case "fleet":
		fo := bench.FleetOptions{Jobs: *fleetJobs, Devices: *fleetDevices, Seed: *fleetSeed}
		fc, err := bench.FleetScenarios(o, fo)
		cli.Fail(err)
		if *metaDate != "" {
			fc.Meta = fc.Meta.WithDate(*metaDate)
		}
		write(bench.FleetTableFrom(fc))
		if *fleetJSON != "" {
			cli.Write(*fleetJSON, fc.WriteJSON)
		}
		if *fleetTrace != "" {
			col := obs.NewCollector()
			_, _, err = bench.FleetObserved(o, fo, col)
			cli.Fail(err)
			cli.Exports{Chrome: *fleetTrace}.Write(col, nil, nil)
		}
	default:
		write(gen(o)...)
	}
}

// parseDevices parses the -devices replica-count list.
func parseDevices(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad replica count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}
