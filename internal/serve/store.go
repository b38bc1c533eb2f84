package serve

import (
	"fmt"
	"hash/fnv"
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

// runEntry is one submitted run: the canonical config it executes, the
// collector recording its events and decisions — the one log both the
// progress stream and the trace are rendered from — and, once done, the
// canonical JSON encoding of its result. resultJSON is written once,
// before status turns done, so a reader that has seen statusDone reads
// it without a lock; done closes right after.
type runEntry struct {
	id  string
	cfg bench.RunConfig
	col *obs.Collector

	submitted time.Time
	status    atomic.Int32
	done      chan struct{}

	resultJSON []byte
}

func newRunEntry(id string, cfg bench.RunConfig) *runEntry {
	return &runEntry{
		id:        id,
		cfg:       cfg,
		col:       obs.NewCollector(),
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
}

// complete encodes the result and wakes every waiter, event streams
// included. It is idempotent-hostile by design: calling it twice is a
// bug, and the double close of done would panic loudly.
func (e *runEntry) complete(res bench.Result) {
	js, err := EncodeResult(res)
	if err != nil {
		// Unreachable for the wire types in use; keep the entry usable
		// anyway so waiters observe a terminal state.
		js = []byte(fmt.Sprintf("{\"ok\":false,\"error\":%q}\n", err.Error()))
	}
	e.resultJSON = js
	e.status.Store(statusDone)
	close(e.done)
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
