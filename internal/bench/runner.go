package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"capuchin/internal/obs"
)

// Runner is the concurrent experiment engine. It executes independent
// RunConfigs on a bounded worker pool and memoizes completed runs behind
// a config-keyed cache, so MaxBatch searches and figure generators that
// revisit the same cell (Fig1, Table2 and the capacity sweep all probe
// resnet50 under TF-ori, for example) pay for the simulation once. The
// cache holds values only: a Result reaches no session, policy, graph,
// tensor or event log (TestResultHoldsNoLiveState), so a sweep's live
// heap grows by its cells' stats, not by their simulations, profiled or
// not. Callers that need a live session call RunLive, which is never
// cached.
//
// The Runner holds graph templates only while a MaxBatch search is in
// flight. The searches in flight share one template source, so
// concurrent searches of one model and mode build its template once;
// each search keeps its own set of spares, whose slots take their
// templates from the source, so each cell refills the graph, session and
// policy its own search's previous cell of that template handed back.
// The source is dropped when the last search in flight returns, and a
// search's spares die with it. A fleet profiling setup owns a set of its
// own; any other cell runs on a nil set (see run). So a sweep's live
// heap never holds templates or spares once its searches are done.
//
// Safety rests on two properties this package tests:
//
//   - every exec.Session is self-contained: each cell builds a fresh
//     graph or instantiates one from an immutable graph.Template, into
//     storage no other cell holds (a spare is one cell's at a time), the
//     model registry is read-only after init, and hw.DeviceSpec has
//     value semantics, so concurrent cells share no mutable state;
//   - the simulator is deterministic: a cell's Result depends only on its
//     RunConfig, never on scheduling, so parallel results are
//     byte-identical to serial ones and caching is sound.
//
// A panicking cell is recovered into a failed Result rather than killing
// the sweep. Cancellation follows one rule this package stress-tests: an
// aborted cell is never memoized, and a caller whose own context is live
// never receives another caller's cancellation — it retries the cell on
// a fresh flight instead. Only callers whose context (or the runner's)
// is actually done see a failed Result wrapping the context error.
type Runner struct {
	jobs int
	ctx  context.Context
	sem  chan struct{}

	// runFn executes one cell, with the tracer an Observe hook returned
	// for it (or nil) and the template set of the search or profiling
	// setup it belongs to (or nil); it is run except in tests that inject
	// failures.
	runFn func(RunConfig, obs.Tracer, *Templates) Result

	// traceFor, when set via Observe, is consulted once per actually
	// simulated cell (cache hits never re-observe) with the cell's
	// canonical key; a non-nil tracer receives the run's live event
	// stream.
	traceFor func(RunConfig) obs.Tracer

	// profile, set via EnableProfiling before submitting work, traces
	// every executed cell into agg, which accumulates the metrics of
	// every cell the runner actually simulated (cache hits do not
	// double-count).
	profile bool
	agg     *obs.Metrics

	mu    sync.Mutex
	cache map[RunConfig]*cacheEntry
	hits  int64
	miss  int64
	// templates is the template source of the searches in flight, and
	// searches their number (holdTemplates, dropTemplates).
	templates *Templates
	searches  int

	panics atomic.Int64
}

// cacheEntry is a single-flight slot: the goroutine that installs it
// computes the result; everyone else waits on done. Completion and cache
// finalization happen under the runner lock in one step — an entry
// observable in the map after done is closed is always a completed,
// non-aborted result.
type cacheEntry struct {
	done chan struct{}
	res  Result
}

// NewRunner returns a Runner executing at most jobs simulations
// concurrently; jobs <= 0 means GOMAXPROCS.
func NewRunner(jobs int) *Runner {
	return NewRunnerContext(context.Background(), jobs)
}

// NewRunnerContext is NewRunner with a cancellation context: once ctx is
// done, not-yet-started cells return failed Results wrapping ctx's error.
func NewRunnerContext(ctx context.Context, jobs int) *Runner {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		jobs: jobs,
		ctx:  ctx,
		sem:  make(chan struct{}, jobs),
		runFn: func(cfg RunConfig, tr obs.Tracer, ts *Templates) Result {
			res, _, _ := run(cfg, tr, ts)
			return res
		},
		agg:   obs.NewMetrics(),
		cache: make(map[RunConfig]*cacheEntry),
	}
}

// EnableProfiling makes every cell the runner simulates feed the
// sweep-wide metrics aggregate (Metrics). Call it before submitting
// work. Each cell's event log is folded into the aggregate after the
// cell returns and then dropped, so the cache still holds values only;
// tracing is outcome-neutral, so profiled cells share the cache with
// unprofiled ones.
func (r *Runner) EnableProfiling() { r.profile = true }

// Observe registers a tracer factory consulted once per actually
// simulated cell (cache misses only), keyed by the cell's canonical
// config. A non-nil tracer receives the cell's live event and decision
// stream via RunTraced; tracing is outcome-neutral, so observed and
// unobserved cells stay cache-compatible. Call it before submitting
// work. A caller that runs one traced cell needs no Runner: RunTraced
// is the uncached equivalent.
func (r *Runner) Observe(f func(RunConfig) obs.Tracer) { r.traceFor = f }

// Metrics returns the aggregate metrics registry merged across every
// cell this runner simulated under EnableProfiling. Cells served from
// the cache are counted once — when they actually ran.
func (r *Runner) Metrics() *obs.Metrics { return r.agg }

// Jobs reports the worker-pool bound.
func (r *Runner) Jobs() int { return r.jobs }

// RunnerStats summarizes cache and recovery activity.
type RunnerStats struct {
	// Hits counts Run calls served from (or coalesced into) an existing
	// cache entry; Misses counts cells actually simulated.
	Hits, Misses int64
	// Panics counts cells recovered into failed Results.
	Panics int64
	// Cached is the number of completed entries currently held.
	Cached int
}

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunnerStats{
		Hits:   r.hits,
		Misses: r.miss,
		Panics: r.panics.Load(),
		Cached: len(r.cache),
	}
}

// CanonicalConfig returns the cache key the Runner files cfg under:
// defaulted fields are canonicalized so equivalent configurations share
// one entry. capuchin-serve derives result IDs from this key, so
// its store dedupes exactly the configurations a Runner would coalesce.
func CanonicalConfig(cfg RunConfig) RunConfig { return cacheKey(cfg) }

// cacheKey canonicalizes defaulted RunConfig fields so equivalent
// configurations share one cache entry; run simulates the same form. It
// leaves invalid values as they are, so Validate judges the key as it
// judges the config.
func cacheKey(cfg RunConfig) RunConfig {
	cfg.RecordSpans = false // ignored
	if cfg.Iterations == 0 {
		cfg.Iterations = 3
	}
	if cfg.Allocator == "" {
		cfg.Allocator = "bfc"
	}
	switch {
	case cfg.Schedule != "":
		if cfg.SchedulePeriod == 0 {
			cfg.SchedulePeriod = 2
		}
	case cfg.SchedulePeriod >= 0:
		// Static runs ignore the sampler knobs entirely.
		cfg.ScheduleSeed, cfg.SchedulePeriod = 0, 0
	}
	if cfg.Devices == 0 || cfg.Devices == 1 {
		// Single-device runs ignore the comm knobs entirely.
		cfg.Devices = 1
		cfg.CommOblivious = false
	}
	return cfg
}

// Run executes one configuration, serving repeats from the cache.
// Concurrent calls for the same key coalesce into a single simulation.
func (r *Runner) Run(cfg RunConfig) Result { return r.RunContext(r.ctx, cfg) }

// RunContext is Run with a per-call context layered over the runner's
// own: the call aborts (with a failed, uncached Result) once either
// context is done. A caller that coalesces into a flight cancelled by
// someone else's context does not inherit the cancellation — the aborted
// entry is dropped and the caller retries the cell under its own, live
// context. A cell already simulating is never interrupted mid-flight;
// cancellation gates queue admission only.
func (r *Runner) RunContext(ctx context.Context, cfg RunConfig) Result {
	return r.runCell(ctx, cfg, nil)
}

// runCell is RunContext for a cell whose graphs come from the template
// set ts (a max-batch search's or a fleet profiling setup's; nil outside
// one). Only a cache miss uses ts, and it runs on the caller's
// goroutine.
func (r *Runner) runCell(ctx context.Context, cfg RunConfig, ts *Templates) Result {
	if ctx == nil {
		ctx = r.ctx
	}
	key := cacheKey(cfg)
	for {
		r.mu.Lock()
		if e, ok := r.cache[key]; ok {
			r.hits++
			r.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				return Result{Config: key, Err: fmt.Errorf("bench: run aborted: %w", ctx.Err())}
			case <-r.ctx.Done():
				return Result{Config: key, Err: fmt.Errorf("bench: run aborted: %w", r.ctx.Err())}
			}
			if aborted(e.res.Err) && ctx.Err() == nil && r.ctx.Err() == nil {
				// The flight we coalesced into was cancelled, but this
				// caller was not: the entry is already gone from the cache
				// (removed in the same critical section that completed
				// it), so retry the cell on a fresh flight.
				continue
			}
			return e.res
		}
		r.miss++
		e := &cacheEntry{done: make(chan struct{})}
		r.cache[key] = e
		r.mu.Unlock()

		e.res = r.execute(ctx, key, ts)
		// Completion and cache finalization are one critical section:
		// removing an aborted entry after closing done would open a window
		// where late arrivals observe the abort as a memoized hit,
		// violating the "not cached, may retry" guarantee.
		r.mu.Lock()
		if aborted(e.res.Err) && r.cache[key] == e {
			delete(r.cache, key)
		}
		close(e.done)
		r.mu.Unlock()
		return e.res
	}
}

// aborted reports whether err came from context cancellation.
func aborted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// execute acquires a worker slot and runs one cell with panic recovery.
// Only computing goroutines hold slots — cache waiters do not — so a
// MaxBatch search waiting on another search's probe cannot deadlock the
// pool. cfg is the cell's canonical key; ts is the cell's template set,
// or nil.
func (r *Runner) execute(ctx context.Context, cfg RunConfig, ts *Templates) (res Result) {
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return Result{Config: cfg, Err: fmt.Errorf("bench: run aborted: %w", ctx.Err())}
	case <-r.ctx.Done():
		return Result{Config: cfg, Err: fmt.Errorf("bench: run aborted: %w", r.ctx.Err())}
	}
	defer func() { <-r.sem }()
	if err := ctx.Err(); err != nil {
		return Result{Config: cfg, Err: fmt.Errorf("bench: run aborted: %w", err)}
	}
	if err := r.ctx.Err(); err != nil {
		return Result{Config: cfg, Err: fmt.Errorf("bench: run aborted: %w", err)}
	}
	defer func() {
		if p := recover(); p != nil {
			r.panics.Add(1)
			res = Result{Config: cfg, Err: fmt.Errorf("bench: run panicked: %v", p)}
		}
	}()
	var tr obs.Tracer
	if r.traceFor != nil {
		tr = r.traceFor(cfg)
	}
	r.profiled(tr, func(tr obs.Tracer) { res = r.runFn(cfg, tr, ts) })
	return res
}

// profiled runs one cell, handing it tr. On a profiling runner it tees
// a fresh Collector in, folds the Collector's log into the aggregate
// after the cell returns and drops it; a cell that panics merges
// nothing.
func (r *Runner) profiled(tr obs.Tracer, cell func(obs.Tracer)) {
	if !r.profile {
		cell(tr)
		return
	}
	col := obs.NewCollector()
	cell(obs.Tee(col, tr))
	r.agg.Merge(obs.BuildMetrics(col.Events(), col.Decisions()))
}

// RunAll executes the configurations concurrently (bounded by the worker
// pool) and returns results in submission order.
func (r *Runner) RunAll(cfgs []RunConfig) []Result {
	out := make([]Result, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg RunConfig) {
			defer wg.Done()
			out[i] = r.Run(cfg)
		}(i, cfg)
	}
	wg.Wait()
	return out
}

// MaxBatch finds the largest batch size that completes for the
// configuration (cfg.Batch is ignored), with every probe served through
// the cache. The search itself is sequential — each probe depends on the
// last — but independent searches fan out across the pool, and repeated
// searches are nearly free. The probes the search simulates instantiate
// one graph template instead of rebuilding the model, taken from the
// template source the runner holds while any search is in flight, and
// each refills the spare graph, session and policy the search's previous
// probe handed back; the spares are garbage once the search returns.
func (r *Runner) MaxBatch(cfg RunConfig) int64 {
	ts := NewTemplates()
	ts.from = r.holdTemplates()
	defer r.dropTemplates()
	return maxBatch(cfg, func(c RunConfig) Result {
		return r.runCell(r.ctx, c, ts)
	})
}

// holdTemplates returns the template source of the searches in flight,
// a new one when there is none, and counts the caller in until its
// dropTemplates.
func (r *Runner) holdTemplates() *Templates {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.searches == 0 {
		r.templates = NewTemplates()
	}
	r.searches++
	return r.templates
}

// dropTemplates ends a holdTemplates, dropping the source when no search
// is in flight any more.
func (r *Runner) dropTemplates() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.searches--; r.searches == 0 {
		r.templates = nil
	}
}

// MaxBatchAll runs the max-batch searches concurrently, returning results
// in submission order: one MaxBatch call per configuration. It holds the
// runner's template source until the last search returns, so searches
// of one model and mode build its template once however they interleave.
func (r *Runner) MaxBatchAll(cfgs []RunConfig) []int64 {
	r.holdTemplates()
	defer r.dropTemplates()
	out := make([]int64, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg RunConfig) {
			defer wg.Done()
			out[i] = r.MaxBatch(cfg)
		}(i, cfg)
	}
	wg.Wait()
	return out
}
