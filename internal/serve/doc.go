// Package serve turns the simulator into a long-running,
// traffic-bearing HTTP/JSON service: capuchin-serve runs bench
// simulations on a bounded worker pool behind a small REST surface so
// many concurrent clients can submit simulation runs, stream their
// progress, and fetch results and Perfetto traces by ID.
//
// The API:
//
//	POST /v1/runs              submit a run config; returns a result ID
//	GET  /v1/runs/{id}         run status, or the result JSON once done
//	                           (?wait=1 long-polls until completion)
//	GET  /v1/runs/{id}/events  live progress stream (JSONL, or SSE when
//	                           Accept: text/event-stream)
//	GET  /v1/runs/{id}/trace   Chrome trace-event JSON (Perfetto)
//	GET  /v1/stats             server counters
//	GET  /metrics              Prometheus text exposition
//	GET  /healthz, /readyz     liveness / drain-aware readiness
//
// Production shape. Results live in one map under one lock, keyed by
// IDs derived from bench.CanonicalConfig, so two clients submitting
// equivalent configs — defaulted or explicit — get the same ID and the
// cell is simulated once: the store is the daemon's only result cache.
// A bounded worker pool, sized independently of HTTP handler
// concurrency, is the only bound on concurrent simulations; an
// admission queue with a depth bound sheds load with 429 + Retry-After
// before the pool is overwhelmed. The server owns one bench.Templates
// set for its lifetime, so each run instantiates its graph from a
// template instead of building the model. The set holds at most one
// template per registered model, mode and sequence bucket, so it never
// grows past the finite registry: 34 templates and about 42 MB for all
// of it, 0.86 MB for alexnet, mobilenetv2 and resnet50 in graph mode.
// Each template also keeps the graph and session of its last static run
// as a spare that the next run refills: 0.78 MB more for those three
// models (40 KB, 352 KB and 388 KB).
// A run nobody inspects is never traced: the worker calls the set's
// RunTraced with a nil tracer, so the run skips the iterations that
// repeat and retains no event log. The first /events or /trace request
// for a run has its log recorded into one obs.Collector. A run still
// queued is upgraded, and its worker runs it traced, so one simulation
// serves the result and the live stream. Any other run gets a trace job
// on the same pool, admitted like a run (queue depth, 429, 503 while
// draining, counted by the drain), which re-simulates its canonical
// config; the simulator is deterministic and tracing outcome-neutral, so
// the log equals the one eager tracing would have recorded, and
// concurrent readers share the one job. The event stream renders JSON
// lines from the Collector on read and the Chrome trace exports it once
// the log ends. A traced run keeps its Collector, whose history is
// pointer-free records and a byte arena the GC never scans, so retained
// memory scales with the runs someone inspected: /v1/stats reports them
// as tracedRuns and their Collectors' bytes as storeBytes. A run or
// trace job that panics is recovered, the run into a failed result.
// On SIGTERM the daemon drains: it stops admitting (503 on
// POST, /readyz goes 503), finishes every in-flight run, flushes event
// streams, then shuts the listener down.
package serve
