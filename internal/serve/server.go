package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"capuchin/internal/bench"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
)

// Config sizes the daemon's internals. The worker pool is deliberately
// independent of HTTP handler concurrency: net/http spawns a goroutine
// per connection, but only Workers simulations ever run at once, and at
// most QueueDepth submissions wait behind them before the server sheds
// load.
type Config struct {
	// Workers bounds concurrently executing runs; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds submissions accepted but not yet running; a
	// submission past the bound is shed with 429 + Retry-After.
	// 0 means 256.
	QueueDepth int
	// Shards is the result-store shard count (rounded up to a power of
	// two); 0 means 16.
	Shards int
	// Jobs bounds the runner's internal simulation concurrency (MaxBatch
	// probes fan out beyond one worker's run); 0 means Workers.
	Jobs int
	// DrainTimeout bounds how long ListenAndServe waits for in-flight
	// runs on shutdown; 0 means 60s.
	DrainTimeout time.Duration
}

func (c Config) fill() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Jobs <= 0 {
		c.Jobs = c.Workers
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 60 * time.Second
	}
	return c
}

// Admission outcomes that map to HTTP backpressure responses.
var (
	errQueueFull   = errors.New("serve: admission queue full")
	errDraining    = errors.New("serve: draining, not admitting new runs")
	errIDCollision = errors.New("serve: result ID collision between distinct configs")
)

// Server is the capuchin-serve daemon: a bench.Runner behind the HTTP
// surface documented on the package. Construct with NewServer, serve
// via Handler (tests) or ListenAndServe (the daemon), stop with Drain —
// which finishes every accepted run — or Close, which abandons queued
// work.
type Server struct {
	cfg     Config
	runner  *bench.Runner
	store   *store
	metrics *obs.Metrics
	start   time.Time

	// baseCtx governs run execution; it is cancelled only by Close, so a
	// drain lets in-flight and queued runs finish.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// admitMu serializes admission: the draining check, the queue-depth
	// check and the enqueue are one atomic step, which is what makes the
	// jobs channel send non-blocking and the drain cutoff exact.
	admitMu  sync.Mutex
	draining atomic.Bool
	queued   atomic.Int64
	jobs     chan *runEntry
	inflight sync.WaitGroup

	workerCtx    context.Context
	workerCancel context.CancelFunc
	workerWG     sync.WaitGroup

	// beforeRun is a test hook invoked by a worker after dequeueing an
	// entry and before simulating it; nil outside tests.
	beforeRun func(*runEntry)
}

// NewServer builds the daemon and starts its worker pool.
func NewServer(cfg Config) *Server {
	cfg = cfg.fill()
	baseCtx, baseCancel := context.WithCancel(context.Background())
	workerCtx, workerCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:          cfg,
		runner:       bench.NewRunnerContext(baseCtx, cfg.Jobs),
		store:        newStore(cfg.Shards),
		metrics:      obs.NewMetrics(),
		start:        time.Now(),
		baseCtx:      baseCtx,
		baseCancel:   baseCancel,
		jobs:         make(chan *runEntry, cfg.QueueDepth),
		workerCtx:    workerCtx,
		workerCancel: workerCancel,
	}
	// Every actually simulated cell streams its events into the store
	// entry that requested it; cache hits replay the recorded stream.
	s.runner.Observe(func(key bench.RunConfig) obs.Tracer {
		if e, ok := s.store.lookupConfig(key); ok {
			return e.tracer
		}
		return nil
	})
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s
}

// Runner exposes the underlying experiment engine (cache statistics,
// aggregate metrics).
func (s *Server) Runner() *bench.Runner { return s.runner }

// Draining reports whether the server has stopped admitting runs.
func (s *Server) Draining() bool { return s.draining.Load() }

// admit resolves a submission to its run entry. Existing entries dedup
// (created=false) regardless of load or drain state — a duplicate is
// not new work. New entries are admitted only when the server is not
// draining and the queue has room.
func (s *Server) admit(key bench.RunConfig) (e *runEntry, created bool, err error) {
	id := runID(key)
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	sh := s.store.shard(id)
	sh.mu.RLock()
	existing, ok := sh.runs[id]
	sh.mu.RUnlock()
	if ok {
		if existing.cfg != key {
			return nil, false, errIDCollision
		}
		s.metrics.Add("serve/deduped", 1)
		return existing, false, nil
	}
	if s.draining.Load() {
		return nil, false, errDraining
	}
	if int(s.queued.Load()) >= s.cfg.QueueDepth {
		s.metrics.Add("serve/shed", 1)
		return nil, false, errQueueFull
	}
	e = newRunEntry(id, key)
	s.store.insert(e)
	s.inflight.Add(1)
	s.queued.Add(1)
	s.metrics.Add("serve/admitted", 1)
	s.jobs <- e // cap == QueueDepth and queued < QueueDepth: never blocks
	return e, true, nil
}

// worker executes queued runs until the worker context is cancelled
// (after a drain completes, or on Close).
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		select {
		case e := <-s.jobs:
			s.runOne(e)
		case <-s.workerCtx.Done():
			return
		}
	}
}

// runOne executes a dequeued run. A worker can still dequeue an entry
// after Close has cancelled the runner context; such a run is abandoned
// exactly as Close abandons the entries it drains, never started.
func (s *Server) runOne(e *runEntry) {
	s.queued.Add(-1)
	if s.baseCtx.Err() != nil {
		s.abandon(e)
		return
	}
	e.status.Store(statusRunning)
	if s.beforeRun != nil {
		s.beforeRun(e)
	}
	res := s.runner.RunContext(s.baseCtx, e.cfg)
	s.finish(e, res)
}

func (s *Server) finish(e *runEntry, res bench.Result) {
	e.complete(res)
	if res.OK {
		s.metrics.Add("serve/completed", 1)
	} else {
		s.metrics.Add("serve/failed", 1)
	}
	s.metrics.Observe("serve/run-latency", sim.Time(time.Since(e.submitted)))
	s.inflight.Done()
}

// beginDrain flips the admission gate under the admission lock, so no
// submission can slip past a drain decision: after it returns, the
// in-flight set is closed.
func (s *Server) beginDrain() {
	s.admitMu.Lock()
	if s.draining.CompareAndSwap(false, true) {
		s.metrics.Add("serve/drains", 1)
	}
	s.admitMu.Unlock()
}

// Drain gracefully stops the server: no new runs are admitted (POST
// returns 503, /readyz flips), every already-accepted run — queued or
// running — completes, event streams flush and close, then the worker
// pool exits. It returns nil when all accepted work finished, or ctx's
// error if the deadline expired first (workers keep running in that
// case; call Close to abandon).
func (s *Server) Drain(ctx context.Context) error {
	s.beginDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
	s.workerCancel()
	s.workerWG.Wait()
	return nil
}

// Close hard-stops the server: admission closes, queued-but-unstarted
// runs complete with failed (aborted, uncached) results so their
// waiters unblock, and the runner context is cancelled. In-flight
// simulations still run to completion — the engine never interrupts a
// cell mid-simulation.
func (s *Server) Close() {
	s.beginDrain()
	s.baseCancel()
	s.workerCancel()
	s.workerWG.Wait()
	for {
		select {
		case e := <-s.jobs:
			s.queued.Add(-1)
			s.abandon(e)
		default:
			return
		}
	}
}

// abandon completes a queued run that will never start with a failed,
// uncached result, so its waiters unblock.
func (s *Server) abandon(e *runEntry) {
	s.finish(e, bench.Result{Config: e.cfg,
		Err: fmt.Errorf("serve: run abandoned: %w", context.Canceled)})
}

// Stats is the machine-readable server snapshot behind GET /v1/stats.
type Stats struct {
	UptimeMillis int64             `json:"uptimeMillis"`
	Draining     bool              `json:"draining"`
	Workers      int               `json:"workers"`
	QueueDepth   int               `json:"queueDepth"`
	Queued       int               `json:"queued"`
	StoredRuns   int               `json:"storedRuns"`
	Admitted     int64             `json:"admitted"`
	Deduped      int64             `json:"deduped"`
	Shed         int64             `json:"shed"`
	Completed    int64             `json:"completed"`
	Failed       int64             `json:"failed"`
	Runner       bench.RunnerStats `json:"runner"`
}

// Snapshot assembles the current Stats.
func (s *Server) Snapshot() Stats {
	return Stats{
		UptimeMillis: time.Since(s.start).Milliseconds(),
		Draining:     s.draining.Load(),
		Workers:      s.cfg.Workers,
		QueueDepth:   s.cfg.QueueDepth,
		Queued:       int(s.queued.Load()),
		StoredRuns:   s.store.len(),
		Admitted:     s.metrics.Counter("serve/admitted"),
		Deduped:      s.metrics.Counter("serve/deduped"),
		Shed:         s.metrics.Counter("serve/shed"),
		Completed:    s.metrics.Counter("serve/completed"),
		Failed:       s.metrics.Counter("serve/failed"),
		Runner:       s.runner.Stats(),
	}
}

// ListenAndServe runs the daemon on addr until ctx is cancelled —
// cmd/capuchin-serve wires SIGTERM/SIGINT into ctx via
// signal.NotifyContext — then drains gracefully: admission stops,
// in-flight runs finish, event streams flush, and only then does the
// HTTP listener shut down.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.ServeListener(ctx, ln)
}

// ServeListener is ListenAndServe on an existing listener (tests use an
// ephemeral port this way).
func (s *Server) ServeListener(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		s.Close()
		hs.Close()
		return err
	}
	return hs.Shutdown(dctx)
}
