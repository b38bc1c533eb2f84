// Package serve turns the experiment engine into a long-running,
// traffic-bearing HTTP/JSON service: capuchin-serve wraps bench.Runner
// behind a small REST surface so many concurrent clients can submit
// simulation runs, stream their progress, and fetch results and
// Perfetto traces by ID.
//
// The API:
//
//	POST /v1/runs              submit a run config; returns a result ID
//	GET  /v1/runs/{id}         run status, or the result JSON once done
//	                           (?wait=1 long-polls until completion)
//	GET  /v1/runs/{id}/events  live progress stream (JSONL, or SSE when
//	                           Accept: text/event-stream)
//	GET  /v1/runs/{id}/trace   Chrome trace-event JSON (Perfetto)
//	GET  /v1/stats             server and runner-cache counters
//	GET  /metrics              Prometheus text exposition
//	GET  /healthz, /readyz     liveness / drain-aware readiness
//
// Production shape. Results live in a sharded, config-keyed store whose
// IDs derive from bench.CanonicalConfig, so two clients submitting
// equivalent configs — defaulted or explicit — get the same ID and the
// runner's single-flight cache simulates the cell once. A bounded
// worker pool, sized independently of HTTP handler concurrency,
// executes runs; an admission queue with a depth bound sheds load with
// 429 + Retry-After before the pool is overwhelmed. Each run records
// into one obs.Collector attached through the runner's Observe hook
// (tracing is outcome-neutral, so streamed and direct results are
// byte-identical); the event stream renders JSON lines from it on read
// and the Chrome trace exports it once the run completes. On SIGTERM
// the daemon drains: it stops admitting (503 on POST, /readyz goes
// 503), finishes every in-flight run, flushes event streams, then shuts
// the listener down.
package serve
