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

// runEntry is one submitted run: the canonical config it executes, the
// collector recording its events and decisions — the one log both the
// progress stream and the trace are rendered from — and, once done, the
// result with its canonical JSON encoding. done closes exactly once,
// when result and resultJSON are set.
type runEntry struct {
	id  string
	cfg bench.RunConfig
	col *obs.Collector

	submitted time.Time
	status    atomic.Int32
	done      chan struct{}

	mu         sync.Mutex
	result     bench.Result
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

// complete records the result and wakes every waiter, event streams
// included. It is idempotent-hostile by design: calling it twice is a
// bug, and the double close of done would panic loudly.
func (e *runEntry) complete(res bench.Result) {
	js, err := EncodeResult(res)
	if err != nil {
		// Unreachable for the wire types in use; keep the entry usable
		// anyway so waiters observe a terminal state.
		js = []byte(fmt.Sprintf("{\"ok\":false,\"error\":%q}\n", err.Error()))
	}
	e.mu.Lock()
	e.result = res
	e.resultJSON = js
	e.mu.Unlock()
	e.status.Store(statusDone)
	close(e.done)
}

// resultBytes returns the canonical result JSON; ok is false until the
// run completes.
func (e *runEntry) resultBytes() ([]byte, bool) {
	if e.status.Load() != statusDone {
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.resultJSON, true
}

// store is the sharded, config-keyed result store. IDs are a stable
// hash of the canonical config, so the shard for a run is a pure
// function of what it computes; shard count is fixed at construction
// (rounded up to a power of two) and lookups touch exactly one shard
// lock. Admission — the only writer — additionally serializes on the
// server's admission lock, so shard mutexes here are contended only by
// readers.
type store struct {
	shards []storeShard
	mask   uint64
	count  atomic.Int64
}

type storeShard struct {
	mu   sync.RWMutex
	runs map[string]*runEntry
}

func newStore(shards int) *store {
	if shards < 1 {
		shards = 16
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &store{shards: make([]storeShard, n), mask: uint64(n - 1)}
	for i := range s.shards {
		s.shards[i].runs = make(map[string]*runEntry)
	}
	return s
}

// runID derives the result ID from a canonical config: a 64-bit FNV-1a
// over the config's full value rendering, hex-encoded. Equivalent
// configs (after bench.CanonicalConfig) collapse to one ID — the store
// analog of the runner's single-flight cache key.
func runID(key bench.RunConfig) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", key)
	return fmt.Sprintf("%016x", h.Sum64())
}

func (s *store) shard(id string) *storeShard {
	h := fnv.New64a()
	h.Write([]byte(id))
	return &s.shards[h.Sum64()&s.mask]
}

// get returns the entry for id, if present.
func (s *store) get(id string) (*runEntry, bool) {
	sh := s.shard(id)
	sh.mu.RLock()
	e, ok := sh.runs[id]
	sh.mu.RUnlock()
	return e, ok
}

// lookupConfig resolves a canonical config to its entry, verifying the
// stored key actually matches (an ID collision maps to "not found").
func (s *store) lookupConfig(key bench.RunConfig) (*runEntry, bool) {
	e, ok := s.get(runID(key))
	if !ok || e.cfg != key {
		return nil, false
	}
	return e, true
}

// insert installs a new entry; the caller holds the admission lock and
// has already checked absence.
func (s *store) insert(e *runEntry) {
	sh := s.shard(e.id)
	sh.mu.Lock()
	sh.runs[e.id] = e
	sh.mu.Unlock()
	s.count.Add(1)
}

// len reports the number of stored runs.
func (s *store) len() int { return int(s.count.Load()) }
