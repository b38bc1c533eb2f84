// Command capuchin-bench regenerates the tables and figures of the
// Capuchin paper's evaluation from the simulator.
//
// Usage:
//
//	capuchin-bench [-exp all|fig1|fig2|fig3|fig8a|fig8b|table2|table3|fig9|fig10|overhead|ablations|resilience|dynamic|scale|arena|fleet]
//	               [-device p100|v100|t4] [-mem GiB] [-iters N] [-jobs N] [-quick] [-markdown]
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
// the three-scenario comparison as machine-readable JSON, an artifact
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
// the replica-count sweep (comma-separated, e.g. "1,2,4").
//
// -exp dynamic evaluates dynamic-shape training (§3): workloads whose
// tensor geometry drifts between iterations, with Capuchin re-planning
// online per shape signature. -schedule picks the drift kind (constant,
// batch, seq, mixed) and -schedule-seed the deterministic sampler seed;
// both only affect the dynamic experiment.
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
// the output is byte-identical at every -jobs value.
//
// Each experiment prints a table with a note recalling the paper's
// reported numbers for comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"capuchin/internal/bench"
	"capuchin/internal/fault"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig1, fig2, fig3, fig8a, fig8b, table2, table3, fig9, fig10, overhead, capacity, extensions, sensitivity, ablations, resilience, dynamic, scale, arena, fleet")
	device := flag.String("device", "p100", "device model: p100, v100, t4")
	mem := flag.Int64("mem", 0, "override device memory in GiB (0 = device default)")
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

	deviceCounts, err := parseDevices(*devices)
	if err != nil {
		fmt.Fprintf(os.Stderr, "invalid -devices list: %v\n", err)
		os.Exit(2)
	}

	plan, err := fault.ParsePlan(*faults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "invalid -faults spec: %v\n", err)
		os.Exit(2)
	}

	var dev hw.DeviceSpec
	switch strings.ToLower(*device) {
	case "p100":
		dev = hw.P100()
	case "v100":
		dev = hw.V100()
	case "t4":
		dev = hw.T4()
	default:
		fmt.Fprintf(os.Stderr, "unknown device %q\n", *device)
		os.Exit(2)
	}
	if *mem > 0 {
		dev = dev.WithMemory(*mem * hw.GiB)
	}
	o := bench.Options{Device: dev, Iterations: *iters, Quick: *quick, Jobs: *jobs, Profile: *profile,
		Schedule: *schedule, ScheduleSeed: *scheduleSeed, Devices: deviceCounts}
	if *profile {
		o.Runner = bench.NewRunner(*jobs)
		defer func() {
			fmt.Fprintln(os.Stderr)
			if err := o.Runner.Metrics().WriteText(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	write := func(t *bench.Table) {
		var err error
		switch {
		case *tsv:
			err = t.WriteTSV(os.Stdout)
		case *markdown:
			err = t.WriteMarkdown(os.Stdout)
		default:
			err = t.WriteText(os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	writeAll := func(ts []*bench.Table) {
		for _, t := range ts {
			write(t)
		}
	}

	switch strings.ToLower(*exp) {
	case "all":
		for _, t := range bench.AllTables(o) {
			if *markdown {
				if err := t.WriteMarkdown(os.Stdout); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				continue
			}
			if err := t.WriteText(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	case "fig1":
		write(bench.Fig1(o))
	case "fig2":
		write(bench.Fig2(o))
	case "fig3":
		write(bench.Fig3(o))
	case "fig8a":
		write(bench.Fig8a(o))
	case "fig8b":
		write(bench.Fig8b(o))
	case "table2":
		write(bench.Table2(o))
	case "table3":
		write(bench.Table3(o))
	case "fig9":
		writeAll(bench.Fig9(o))
	case "fig10":
		writeAll(bench.Fig10(o))
	case "overhead":
		write(bench.Overhead(o))
	case "capacity":
		write(bench.CapacitySweep(o))
	case "extensions":
		write(bench.TableExtensions(o))
	case "sensitivity":
		write(bench.DeviceSensitivity(o))
	case "ablations":
		writeAll(bench.Ablations(o))
	case "resilience":
		write(bench.Resilience(o, plan))
	case "dynamic":
		write(bench.Dynamic(o))
	case "scale":
		write(bench.Scaling(o))
	case "arena":
		write(bench.Arena(o))
	case "fleet":
		fo := bench.FleetOptions{Jobs: *fleetJobs, Devices: *fleetDevices, Seed: *fleetSeed}
		fc, err := bench.FleetScenarios(o, fo)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *metaDate != "" {
			fc.Meta = fc.Meta.WithDate(*metaDate)
		}
		write(bench.FleetTableFrom(fc))
		if *fleetJSON != "" {
			f, err := os.Create(*fleetJSON)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := fc.WriteJSON(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *fleetTrace != "" {
			col := obs.NewCollector()
			if _, err := bench.FleetObserved(o, fo, col, nil); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f, err := os.Create(*fleetTrace)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := obs.WriteChromeTrace(f, col.Events()); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %d fleet trace events to %s (load in Perfetto)\n", col.Len(), *fleetTrace)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// parseDevices parses the -devices replica-count list.
func parseDevices(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &n); err != nil || n < 1 {
			return nil, fmt.Errorf("bad replica count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}
