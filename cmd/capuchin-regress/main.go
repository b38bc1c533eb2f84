// Command capuchin-regress is the perf-regression gate: it judges
// checked-in artifacts — the BENCH_*.json run records and the allocs/op
// budgets — against fresh runs, fresh benchmark output or their own
// recorded claims.
//
// Usage:
//
//	capuchin-regress [-slack N] [-jobs N] [-bench FILE|-] [artifact ...]
//
// With no artifacts it gates BENCH_fleet.json, BENCH_parallel_runner.json,
// BENCH_hotpath.json and BENCH_serve.json in the working directory. Each
// artifact's top-level keys pick its gate, and its meta provenance block
// supplies the reproduction parameters, so the gate needs no side-channel
// configuration. An alloc budget is checked against the `go test -bench
// -benchmem` output that -bench names ("-" reads stdin):
//
//	go test -run '^$' -bench BenchmarkHotPath -benchmem <pkgs> | \
//	    capuchin-regress -bench - internal/bench/testdata/alloc_budget.json
//
// -slack multiplies every tolerance that is not exact: 1 for the strict
// local gate, higher for CI smoke where only gross regressions matter.
// Exits 0 when every gated metric is within tolerance, 1 when any
// regressed, 2 on usage or reproduction errors.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"capuchin/internal/bench"
)

func main() {
	slack := flag.Float64("slack", 1, "tolerance multiplier (>1 loosens every inexact limit)")
	jobs := flag.Int("jobs", 0, "parallel worker count for the reproduction runs (0 = GOMAXPROCS)")
	benchPath := flag.String("bench", "", "go test -bench -benchmem output `FILE` for alloc budgets (\"-\" = stdin)")
	flag.Parse()

	paths := flag.Args()
	if len(paths) == 0 {
		paths = []string{"BENCH_fleet.json", "BENCH_parallel_runner.json", "BENCH_hotpath.json", "BENCH_serve.json"}
	}
	// Read the bench output once: every alloc budget on the command line
	// gates the same run.
	var benchOut []byte
	var err error
	switch *benchPath {
	case "":
	case "-":
		benchOut, err = io.ReadAll(os.Stdin)
	default:
		benchOut, err = os.ReadFile(*benchPath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "reading bench output: %v\n", err)
		os.Exit(2)
	}

	var regs []bench.Row
	for _, path := range paths {
		var in io.Reader
		if benchOut != nil {
			in = bytes.NewReader(benchOut)
		}
		r, err := bench.Regress(path, bench.Options{Jobs: *jobs}, *slack, in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("%s: %d regressed\n", path, len(r))
		regs = append(regs, r...)
	}

	if len(regs) > 0 {
		fmt.Println()
		for _, r := range regs {
			fmt.Printf("REGRESSION %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Println("no regressions")
}
