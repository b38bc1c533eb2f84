// Command capuchin-serve runs the Capuchin simulator as a long-lived
// HTTP/JSON service: clients POST run configurations and read back
// results, live event streams, Chrome traces and Prometheus metrics,
// while a bounded worker pool executes the simulations behind a
// config-keyed single-flight cache — identical submissions, concurrent
// or repeated, cost one simulation.
//
// Usage:
//
//	capuchin-serve [-addr :8080] [-workers N] [-queue N] [-shards N] [-jobs N]
//	               [-drain-timeout DUR]
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
//	GET  /metrics             Prometheus exposition (serve + runner)
//	GET  /healthz, /readyz    liveness; readiness flips 503 on drain
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
// block; -meta-date opts into stamping a wall-clock date.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"capuchin/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrently executing simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 256, "admission queue depth before shedding with 429")
	shards := flag.Int("shards", 16, "result-store shard count")
	jobs := flag.Int("jobs", 0, "runner-internal simulation concurrency (0 = workers)")
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

	if *selftest {
		os.Exit(runSelfTest(serve.SelfTestOptions{
			Clients:  *clients,
			Requests: *requests,
			Seed:     *seed,
			Workers:  *workers,
			Quick:    *quick,
			MetaDate: *metaDate,
		}, *jsonPath))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s := serve.NewServer(serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		Shards:       *shards,
		Jobs:         *jobs,
		DrainTimeout: *drainTimeout,
	})
	fmt.Fprintf(os.Stderr, "capuchin-serve: listening on %s\n", *addr)
	if err := s.ListenAndServe(ctx, *addr); err != nil {
		fmt.Fprintf(os.Stderr, "capuchin-serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "capuchin-serve: drained cleanly")
}

func runSelfTest(o serve.SelfTestOptions, jsonPath string) int {
	art, err := serve.SelfTest(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "capuchin-serve: selftest: %v\n", err)
		return 1
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "capuchin-serve: %v\n", err)
			return 1
		}
		if err := art.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "capuchin-serve: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "capuchin-serve: %v\n", err)
			return 1
		}
	} else if err := art.WriteJSON(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "capuchin-serve: %v\n", err)
		return 1
	}
	l, d := art.Load, art.Drain
	fmt.Printf("serve selftest: %d clients, %d requests: %.0f req/s, p50 %.1fms p99 %.1fms, shed %.1f%%, dedup %.1f%%, errors %d\n",
		l.Clients, l.Total, l.RPS, l.P50Millis, l.P99Millis, l.ShedRatePct, l.DedupRatePct, l.Errors)
	fmt.Printf("drain scenario: %d in flight, %d completed, %d dropped, shed observed %v, 503 during drain %d\n",
		d.InFlightAtDrain, d.CompletedAfterDrain, d.Dropped, d.ShedObserved, d.RejectedDuringDrain)
	if !art.ByteIdentity.Identical {
		fmt.Fprintf(os.Stderr, "capuchin-serve: served result for %s is NOT byte-identical to direct bench.Run\n",
			art.ByteIdentity.Config)
		return 1
	}
	fmt.Printf("byte identity: served %s == direct bench.Run encoding\n", art.ByteIdentity.Config)
	if d.Dropped != 0 {
		fmt.Fprintln(os.Stderr, "capuchin-serve: drain dropped accepted runs")
		return 1
	}
	return 0
}
