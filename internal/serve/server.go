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
	// Jobs is ignored: the worker pool is the only bound on concurrent
	// simulations.
	//
	// Deprecated: ignored; size the pool with Workers.
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
	errAbandoned   = fmt.Errorf("serve: run abandoned: %w", context.Canceled)
)

// Server is the capuchin-serve daemon: a worker pool running simulations
// (bench.Templates.RunTraced) behind the HTTP surface documented on the
// package. Runs are untraced; a run's event log is recorded only when
// /events or /trace asks for it.
// Construct with NewServer, serve via Handler (tests) or ListenAndServe
// (the daemon), stop with Drain — which finishes every accepted run — or
// Close, which abandons queued work.
type Server struct {
	cfg     Config
	metrics *obs.Metrics
	start   time.Time
	// templates holds a graph template per (model, mode, seq) the server
	// has run, and each template's spare graph and session, for its
	// lifetime: every run instantiates its graphs from it instead of
	// building the model.
	templates *bench.Templates

	// mu guards runs, the daemon's one result store, keyed by run ID.
	// The GET handlers read under RLock. Admission, of a run or a trace
	// job, holds the write lock across the dedup lookup, the draining
	// check, the queue-depth check, the insert and the enqueue, which
	// makes the jobs channel send non-blocking and the drain cutoff exact.
	mu       sync.RWMutex
	runs     map[string]*runEntry
	draining atomic.Bool
	queued   atomic.Int64
	jobs     chan job
	inflight sync.WaitGroup

	// workerCtx stops the pool. Drain cancels it only once every accepted
	// run has finished; Close cancels it at once, and a worker that still
	// dequeues a run afterwards abandons it instead of starting it.
	workerCtx    context.Context
	workerCancel context.CancelFunc
	workerWG     sync.WaitGroup

	// beforeRun is a test hook invoked by a worker before each
	// simulation, of a run or a trace job: after dequeueing it and, for a
	// run, while its status is still queued. nil outside tests.
	beforeRun func(*runEntry)
}

// job is one unit of pool work: a run, or, when trace is non-nil, a
// trace job that re-simulates the run into trace's Collector.
type job struct {
	e     *runEntry
	trace *runTrace
}

// NewServer builds the daemon and starts its worker pool.
func NewServer(cfg Config) *Server {
	cfg = cfg.fill()
	workerCtx, workerCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:          cfg,
		metrics:      obs.NewMetrics(),
		start:        time.Now(),
		templates:    bench.NewTemplates(),
		runs:         make(map[string]*runEntry),
		jobs:         make(chan job, cfg.QueueDepth),
		workerCtx:    workerCtx,
		workerCancel: workerCancel,
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s
}

// Draining reports whether the server has stopped admitting runs.
func (s *Server) Draining() bool { return s.draining.Load() }

// admit resolves a submission to its run entry. Existing entries dedup
// (created=false) regardless of load or drain state — a duplicate is
// not new work. New entries are admitted only when the server is not
// draining and the queue has room.
func (s *Server) admit(key bench.RunConfig) (e *runEntry, created bool, err error) {
	id := runID(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.runs[id]; ok {
		if existing.cfg != key {
			return nil, false, errIDCollision
		}
		s.metrics.Add("serve/deduped", 1)
		return existing, false, nil
	}
	e = newRunEntry(id, key)
	if err := s.enqueue(job{e: e}); err != nil {
		return nil, false, err
	}
	s.runs[id] = e
	s.metrics.Add("serve/admitted", 1)
	return e, true, nil
}

// enqueue admits one job to the pool, or refuses it while draining or
// when the queue is full; s.mu is held for writing.
func (s *Server) enqueue(j job) error {
	if s.draining.Load() {
		return errDraining
	}
	if int(s.queued.Load()) >= s.cfg.QueueDepth {
		s.metrics.Add("serve/shed", 1)
		return errQueueFull
	}
	s.inflight.Add(1)
	s.queued.Add(1)
	s.jobs <- j // cap == QueueDepth and queued < QueueDepth: never blocks
	return nil
}

// traceOf returns e's event log, arranging for it to be recorded on the
// first request. A queued run is upgraded: its worker runs it traced. A
// run that never ran has an empty log. Any other run gets a trace job,
// admitted like a run (errDraining, errQueueFull); readers that arrive
// while it is pending share it.
func (s *Server) traceOf(e *runEntry) (*runTrace, error) {
	if t := e.trace.Load(); t != nil {
		return t, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if t := e.trace.Load(); t != nil {
		return t, nil
	}
	var t *runTrace
	switch {
	case e.status.Load() == statusQueued:
		t = newRunTrace(false) // begin hands its Collector to the run
	case e.neverRan:
		t = newRunTrace(false)
		close(t.done)
	default:
		t = newRunTrace(true)
		if err := s.enqueue(job{e: e, trace: t}); err != nil {
			return nil, err
		}
	}
	e.trace.Store(t)
	return t, nil
}

// worker executes queued runs until the worker context is cancelled
// (after a drain completes, or on Close).
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		select {
		case j := <-s.jobs:
			s.runOne(j)
		case <-s.workerCtx.Done():
			return
		}
	}
}

// runOne executes a dequeued job. A worker can still dequeue one after
// Close; such a job is abandoned exactly as Close abandons the jobs it
// drains, never started.
func (s *Server) runOne(j job) {
	s.queued.Add(-1)
	if s.workerCtx.Err() != nil {
		s.abandon(j)
		return
	}
	res, err := s.simulate(j)
	if j.trace == nil {
		if err != nil {
			res = bench.Result{Config: j.e.cfg, Err: err}
		}
		s.finish(j.e, res)
		return
	}
	if err != nil {
		j.e.dropTrace(j.trace, err)
	} else {
		s.metrics.Add("serve/traces", 1)
		close(j.trace.done)
	}
	s.inflight.Done()
}

// simulate runs the job's config on graphs from the server's template
// set: a run untraced unless a trace was requested before it began, a
// trace job into its own Collector. Instantiation and tracing are both
// outcome-neutral and the simulator is deterministic, so the result
// equals a direct bench.Run's and a trace job's log is the one the run
// would have recorded. A panic is recovered into an error, so the worker
// survives and the job's waiters unblock.
func (s *Server) simulate(j job) (res bench.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: run panicked: %v", p)
		}
	}()
	if s.beforeRun != nil {
		s.beforeRun(j.e)
	}
	if j.trace != nil {
		return s.templates.RunTraced(j.e.cfg, j.trace.col), nil
	}
	return s.templates.RunTraced(j.e.cfg, j.e.begin()), nil
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

// beginDrain flips the admission gate under the store's write lock, so
// no submission can slip past a drain decision: after it returns, the
// in-flight set is closed.
func (s *Server) beginDrain() {
	s.mu.Lock()
	if s.draining.CompareAndSwap(false, true) {
		s.metrics.Add("serve/drains", 1)
	}
	s.mu.Unlock()
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

// Close hard-stops the server: admission closes and queued-but-unstarted
// runs complete with failed (abandoned) results so their waiters
// unblock. In-flight simulations still run to completion — the engine
// never interrupts a run mid-simulation.
func (s *Server) Close() {
	s.beginDrain()
	s.workerCancel()
	s.workerWG.Wait()
	for {
		select {
		case j := <-s.jobs:
			s.queued.Add(-1)
			s.abandon(j)
		default:
			return
		}
	}
}

// abandon ends a queued job that will never start, so its waiters
// unblock: a run completes with a failed result, a trace job's log is
// dropped.
func (s *Server) abandon(j job) {
	if j.trace != nil {
		j.e.dropTrace(j.trace, errAbandoned)
		s.inflight.Done()
		return
	}
	s.finish(j.e, bench.Result{Config: j.e.cfg, Err: errAbandoned})
}

// Stats is the machine-readable server snapshot behind GET /v1/stats.
// TracedRuns counts the stored runs whose event log someone asked for;
// StoreBytes is the memory those logs retain, the sum of their
// Collectors' Bytes. An untraced run retains no log. Shed counts every
// job refused for a full queue, runs and trace jobs alike.
type Stats struct {
	UptimeMillis int64 `json:"uptimeMillis"`
	Draining     bool  `json:"draining"`
	Workers      int   `json:"workers"`
	QueueDepth   int   `json:"queueDepth"`
	Queued       int   `json:"queued"`
	StoredRuns   int   `json:"storedRuns"`
	TracedRuns   int   `json:"tracedRuns"`
	StoreBytes   int64 `json:"storeBytes"`
	Admitted     int64 `json:"admitted"`
	Deduped      int64 `json:"deduped"`
	Shed         int64 `json:"shed"`
	Completed    int64 `json:"completed"`
	Failed       int64 `json:"failed"`
}

// Snapshot assembles the current Stats.
func (s *Server) Snapshot() Stats {
	s.mu.RLock()
	stored := len(s.runs)
	var traced int
	var storeBytes int64
	for _, e := range s.runs {
		if t := e.trace.Load(); t != nil {
			traced++
			storeBytes += t.col.Bytes()
		}
	}
	s.mu.RUnlock()
	return Stats{
		UptimeMillis: time.Since(s.start).Milliseconds(),
		Draining:     s.draining.Load(),
		Workers:      s.cfg.Workers,
		QueueDepth:   s.cfg.QueueDepth,
		Queued:       int(s.queued.Load()),
		StoredRuns:   stored,
		TracedRuns:   traced,
		StoreBytes:   storeBytes,
		Admitted:     s.metrics.Counter("serve/admitted"),
		Deduped:      s.metrics.Counter("serve/deduped"),
		Shed:         s.metrics.Counter("serve/shed"),
		Completed:    s.metrics.Counter("serve/completed"),
		Failed:       s.metrics.Counter("serve/failed"),
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
