// Command capuchin-serve runs the Capuchin simulator as a long-lived
// HTTP/JSON service: clients POST run configurations and read back
// results, live event streams, Chrome traces and Prometheus metrics,
// while a bounded worker pool executes the simulations. The result
// store is keyed by canonical config, so identical submissions,
// concurrent or repeated, cost one simulation.
//
// Usage:
//
//	capuchin-serve [-addr :8080] [-workers N] [-queue N] [-drain-timeout DUR]
//	capuchin-serve -selftest [-clients N] [-requests N] [-seed N] [-quick]
//	               [-json BENCH_serve.json] [-meta-date YYYY-MM-DD]
//
// API:
//
//	POST /v1/runs             submit a run; 202 accepted, 200 deduped,
//	                          429 + Retry-After shed, 503 draining
//	GET  /v1/runs/{id}        result JSON (?wait=1 long-polls)
//	GET  /v1/runs/{id}/events JSONL event stream (?sse=1 or Accept:
//	                          text/event-stream for SSE framing)
//	GET  /v1/runs/{id}/trace  Chrome trace (?wait=1 long-polls)
//	GET  /v1/stats            server snapshot JSON
//	GET  /metrics             Prometheus exposition of the serve counters
//	GET  /healthz, /readyz    liveness; readiness flips 503 on drain
//
// Runs are simulated untraced. The first /events or /trace request for
// a run records its event log: a queued run is traced as it runs, any
// other is re-simulated by a trace job on the worker pool, which is
// admitted like a submission (429 + Retry-After, 503 draining).
//
// -workers bounds concurrently executing simulations independently of
// HTTP handler concurrency; -queue bounds accepted-but-not-running
// submissions, past which the server sheds load with 429 + Retry-After.
// SIGINT/SIGTERM trigger a graceful drain: admission stops (readyz goes
// 503), every accepted run completes and stays fetchable until the
// drain finishes, then the listener closes. -drain-timeout bounds the
// wait.
//
// -selftest skips the daemon and runs the serving benchmark instead: a
// seeded closed-loop fleet of -clients concurrent clients (default
// 1000) driving a live in-process server, followed by a deterministic
// backpressure-and-drain scenario, written as the BENCH_serve.json
// artifact (-json) that `capuchin-regress FILE` gates. -quick trims
// the fleet for CI smoke and records itself in the artifact's meta
// block; -meta-date opts into stamping a wall-clock date. -json follows
// the cli package's output rule ("-" is stdout, and a file that cannot
// be written or closed exits 1); "" writes the artifact to stdout only.
//
// A negative -workers, -queue, -clients, -requests or -drain-timeout
// exits 2 before anything runs: 0 is each one's default.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"capuchin/internal/cli"
	"capuchin/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrently executing simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 256, "admission queue depth before shedding with 429")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "graceful-drain bound on shutdown")
	selftest := flag.Bool("selftest", false, "run the serving benchmark instead of the daemon")
	clients := flag.Int("clients", 0, "selftest: concurrent closed-loop clients (0 = 1000, or 64 with -quick)")
	requests := flag.Int("requests", 0, "selftest: total request budget (0 = 3x clients)")
	seed := flag.Uint64("seed", 1, "selftest: workload-menu seed")
	quick := flag.Bool("quick", false, "selftest: trimmed fleet for CI smoke")
	jsonPath := flag.String("json", "BENCH_serve.json", "selftest: artifact output path (\"\" = stdout only)")
	metaDate := flag.String("meta-date", "", "selftest: stamp meta.date YYYY-MM-DD (breaks byte reproducibility)")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	cli.Counts("workers", "queue", "clients", "requests", "drain-timeout")

	if *selftest {
		runSelfTest(serve.SelfTestOptions{
			Clients:  *clients,
			Requests: *requests,
			Seed:     *seed,
			Workers:  *workers,
			Quick:    *quick,
			MetaDate: *metaDate,
		}, *jsonPath)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s := serve.NewServer(serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		DrainTimeout: *drainTimeout,
	})
	fmt.Fprintf(os.Stderr, "capuchin-serve: listening on %s\n", *addr)
	if err := s.ListenAndServe(ctx, *addr); err != nil {
		cli.Fail(fmt.Errorf("capuchin-serve: %w", err))
	}
	fmt.Fprintln(os.Stderr, "capuchin-serve: drained cleanly")
}

// runSelfTest runs the serving benchmark, writes its artifact to
// jsonPath ("" = stdout only) and prints its summary, exiting 1 when the
// harness failed, the served result was not byte-identical to a direct
// run, or the drain dropped an accepted run.
func runSelfTest(o serve.SelfTestOptions, jsonPath string) {
	art, err := serve.SelfTest(o)
	if err != nil {
		cli.Fail(fmt.Errorf("capuchin-serve: selftest: %w", err))
	}
	if jsonPath == "" {
		jsonPath = "-"
	}
	cli.Write(jsonPath, art.WriteJSON)
	l, d := art.Load, art.Drain
	fmt.Printf("serve selftest: %d clients, %d requests: %.0f req/s, p50 %.1fms p99 %.1fms, shed %.1f%%, dedup %.1f%%, errors %d\n",
		l.Clients, l.Total, l.RPS, l.P50Millis, l.P99Millis, l.ShedRatePct, l.DedupRatePct, l.Errors)
	fmt.Printf("drain scenario: %d in flight, %d completed, %d dropped, shed observed %v, 503 during drain %d\n",
		d.InFlightAtDrain, d.CompletedAfterDrain, d.Dropped, d.ShedObserved, d.RejectedDuringDrain)
	if !art.ByteIdentity.Identical {
		cli.Fail(fmt.Errorf("capuchin-serve: served result for %s is NOT byte-identical to direct bench.Run",
			art.ByteIdentity.Config))
	}
	fmt.Printf("byte identity: served %s == direct bench.Run encoding\n", art.ByteIdentity.Config)
	if d.Dropped != 0 {
		cli.Fail(errors.New("capuchin-serve: drain dropped accepted runs"))
	}
}
