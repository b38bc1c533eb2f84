package serve

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"capuchin/internal/bench"
	"capuchin/internal/obs"
)

// Run lifecycle states.
const (
	statusQueued int32 = iota
	statusRunning
	statusDone
)

func statusString(s int32) string {
	switch s {
	case statusQueued:
		return "queued"
	case statusRunning:
		return "running"
	case statusDone:
		return "done"
	}
	return "unknown"
}

// runEntry is one submitted run: the canonical config it executes,
// once done the canonical JSON encoding of its result, and, once someone
// asks for it, its event log. resultJSON is written once, before status
// turns done, so a reader that has seen statusDone reads it without a
// lock; done closes right after.
type runEntry struct {
	id  string
	cfg bench.RunConfig

	submitted time.Time
	status    atomic.Int32
	done      chan struct{}

	resultJSON []byte

	// mu orders a trace request against the run's start and completion:
	// a trace requested before begin is recorded by the run itself.
	mu sync.Mutex
	// neverRan is set when the run completed without starting
	// (abandoned), so its log is empty.
	neverRan bool
	// trace is the run's event log, nil until /events or /trace asks for
	// it. It is stored under mu and loaded without it.
	trace atomic.Pointer[runTrace]
}

// runTrace is a run's event log: the Collector that either the run
// itself (a trace requested while it was queued) or a trace job records
// into. done closes once nothing more will be recorded; err, set before
// that, means the log is not the run's because its trace job was
// abandoned or panicked.
type runTrace struct {
	col  *obs.Collector
	done chan struct{}
	job  bool
	err  error
}

func newRunTrace(job bool) *runTrace {
	return &runTrace{col: obs.NewCollector(), done: make(chan struct{}), job: job}
}

// ended reports whether the log is complete.
func (t *runTrace) ended() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

func newRunEntry(id string, cfg bench.RunConfig) *runEntry {
	return &runEntry{
		id:        id,
		cfg:       cfg,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
}

// begin marks the run running and returns the tracer it records into:
// the Collector of a trace requested while it was queued, or nil.
func (e *runEntry) begin() obs.Tracer {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.status.Store(statusRunning)
	if t := e.trace.Load(); t != nil {
		return t.col
	}
	return nil
}

// complete encodes the result and wakes every waiter, including the
// readers of a log the run recorded itself. It is idempotent-hostile by
// design: calling it twice is a bug, and the double close of done would
// panic loudly.
func (e *runEntry) complete(res bench.Result) {
	js, err := EncodeResult(res)
	if err != nil {
		// Unreachable for the wire types in use; keep the entry usable
		// anyway so waiters observe a terminal state.
		js = []byte(fmt.Sprintf("{\"ok\":false,\"error\":%q}\n", err.Error()))
	}
	e.mu.Lock()
	e.resultJSON = js
	e.neverRan = e.status.Load() == statusQueued
	e.status.Store(statusDone)
	t := e.trace.Load()
	e.mu.Unlock()
	close(e.done)
	if t != nil && !t.job {
		close(t.done)
	}
}

// dropTrace ends a trace job whose log is not the run's and detaches it,
// so the next request for the log starts over.
func (e *runEntry) dropTrace(t *runTrace, err error) {
	e.mu.Lock()
	t.err = err
	e.trace.CompareAndSwap(t, nil)
	e.mu.Unlock()
	close(t.done)
}

// resultBytes returns the canonical result JSON; ok is false until the
// run completes.
func (e *runEntry) resultBytes() ([]byte, bool) {
	if e.status.Load() != statusDone {
		return nil, false
	}
	return e.resultJSON, true
}

// runID derives the result ID from a canonical config: a 64-bit FNV-1a
// over the config's full value rendering, hex-encoded. Equivalent
// configs (after bench.CanonicalConfig) collapse to one ID, so the
// store's dedup is the daemon's only result cache.
func runID(key bench.RunConfig) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", key)
	return fmt.Sprintf("%016x", h.Sum64())
}

// lookup returns the stored run with the given ID, if any.
func (s *Server) lookup(id string) (*runEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.runs[id]
	return e, ok
}
