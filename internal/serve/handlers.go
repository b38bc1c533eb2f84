package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"capuchin/internal/obs"
)

// submitReply is the wire response of POST /v1/runs.
type submitReply struct {
	ID      string `json:"id"`
	Status  string `json:"status"`
	Deduped bool   `json:"deduped"`
}

// statusReply is the wire response of GET /v1/runs/{id} before the run
// completes.
type statusReply struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

// Handler returns the daemon's HTTP surface. It is safe to serve from
// any number of goroutines; every handler is a thin shell over the
// admission path and the result store.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleResult)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeAdmitError answers a job the server refused: 429 + Retry-After
// when the queue is full, 503 while draining, 500 otherwise.
func writeAdmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// handleSubmit admits one run. 202 accepted (new entry), 200 deduped
// (the config is already known — queued, running or done), 400 invalid,
// 429 + Retry-After shed under backpressure, 503 draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	key, err := decodeRunRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	e, created, err := s.admit(key)
	if err != nil {
		writeAdmitError(w, err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusAccepted
	}
	writeJSON(w, code, submitReply{
		ID:      e.id,
		Status:  statusString(e.status.Load()),
		Deduped: !created,
	})
}

// handleResult serves a run's result JSON. A completed run answers 200
// with the canonical result document (byte-identical to EncodeResult of
// a direct bench.Run). An incomplete run answers 202 with its status —
// unless ?wait=1, which long-polls until completion or the client
// disconnects.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "serve: unknown run ID")
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-e.done:
		case <-r.Context().Done():
			return
		}
	}
	body, done := e.resultBytes()
	if !done {
		writeJSON(w, http.StatusAccepted, statusReply{ID: e.id, Status: statusString(e.status.Load())})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handleEvents streams the run's event log: JSON Lines by default, or
// Server-Sent Events when the client asks for text/event-stream (or
// ?sse=1). The first request for the log has it recorded (Server.traceOf);
// one the server refuses answers 429 or 503 as a submission would. The
// lines are rendered from the log's Collector on read: the stream replays
// everything recorded so far, then follows live records until the log
// ends or the client disconnects. Every render is whole JSONL lines, so
// the SSE framing wraps lines exactly.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "serve: unknown run ID")
		return
	}
	t, err := s.traceOf(e)
	if err != nil {
		writeAdmitError(w, err)
		return
	}
	sse := r.URL.Query().Get("sse") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var (
		chunk []byte
		cur   obs.Cursor
		wake  <-chan struct{}
	)
	for {
		// Nothing is recorded after the log ends, so a render that
		// starts after its end was seen holds the rest of the log.
		done := t.ended()
		chunk, cur, wake = t.col.AppendJSONL(chunk[:0], cur)
		switch {
		case len(chunk) == 0:
		case sse:
			// One SSE data frame per JSONL line.
			for _, line := range strings.Split(strings.TrimRight(string(chunk), "\n"), "\n") {
				fmt.Fprintf(w, "data: %s\n\n", line)
			}
		default:
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
		if done && sse {
			fmt.Fprint(w, "event: done\ndata: {}\n\n")
		}
		// Flushing every pass, records or not, also sends the headers
		// before the first record, so a client sees the stream open.
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-wake:
		case <-t.done:
		case <-r.Context().Done():
			return
		}
	}
}

// handleTrace serves the run's Chrome trace (chrome://tracing /
// Perfetto format). Like /events, the first request has the log
// recorded. The trace covers the whole log, so until the log ends the
// request answers 202 with the run's status ("tracing" once the run is
// done) — unless ?wait=1, which blocks until it ends. A log whose trace
// job was abandoned answers 503, one whose job panicked 500.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "serve: unknown run ID")
		return
	}
	t, err := s.traceOf(e)
	if err != nil {
		writeAdmitError(w, err)
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-t.done:
		case <-r.Context().Done():
			return
		}
	}
	if !t.ended() {
		st := e.status.Load()
		status := statusString(st)
		if st == statusDone {
			status = "tracing"
		}
		writeJSON(w, http.StatusAccepted, statusReply{ID: e.id, Status: status})
		return
	}
	switch {
	case errors.Is(t.err, errAbandoned):
		writeError(w, http.StatusServiceUnavailable, t.err.Error())
		return
	case t.err != nil:
		writeError(w, http.StatusInternalServerError, t.err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = obs.WriteChromeTrace(w, t.col.Events())
}

// handleStats serves the machine-readable server snapshot.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// handleMetrics writes the serve registry (admission, dedup, shed,
// trace jobs, run latency) as Prometheus exposition. It renders a copy, so a slow
// client never holds the registry's lock.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := obs.NewMetrics()
	snap.Merge(s.metrics)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = snap.WritePrometheus(w)
}

// handleHealthz reports liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz reports readiness: 200 while admitting, 503 once
// draining — load balancers stop routing before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	_, _ = w.Write([]byte("ok\n"))
}
