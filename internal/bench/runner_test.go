package bench

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capuchin/internal/hw"
	"capuchin/internal/obs"
)

// matrixConfigs is a small model×system×batch sweep used by the
// differential determinism tests.
func matrixConfigs() []RunConfig {
	dev := smallDev()
	var cfgs []RunConfig
	for _, m := range []string{"resnet50", "mobilenetv2"} {
		for _, sys := range []System{SystemTF, SystemVDNN, SystemOpenAISpeed, SystemCapuchin} {
			for _, b := range []int64{4, 8} {
				cfgs = append(cfgs, RunConfig{Model: m, Batch: b, System: sys,
					Device: dev, Iterations: 2})
			}
		}
	}
	return cfgs
}

// renderMatrix formats a result set the way the figure generators do, so
// byte-level comparison covers the rendering path too.
func renderMatrix(rs []Result) string {
	t := &Table{
		Title:  "matrix",
		Header: []string{"model", "system", "batch", "img/s", "steady"},
	}
	for _, r := range rs {
		t.AddRow(r.Config.Model, string(r.Config.System),
			fmt.Sprintf("%d", r.Config.Batch), speedCell(r), r.Steady.String())
	}
	var sb strings.Builder
	if err := t.WriteText(&sb); err != nil {
		panic(err)
	}
	return sb.String()
}

// TestRunnerMatchesSerial is the contract that makes the cache and the
// parallelism safe: the Runner at 8 jobs produces results — per-iteration
// IterStats and rendered tables — byte-identical to strictly serial
// execution.
func TestRunnerMatchesSerial(t *testing.T) {
	cfgs := matrixConfigs()
	serial := make([]Result, len(cfgs))
	for i, c := range cfgs {
		serial[i] = Run(c)
	}
	par := NewRunner(8).RunAll(cfgs)
	for i := range cfgs {
		if par[i].OK != serial[i].OK {
			t.Errorf("%v: OK %v (parallel) vs %v (serial)", cfgs[i], par[i].OK, serial[i].OK)
			continue
		}
		if !reflect.DeepEqual(par[i].Stats, serial[i].Stats) {
			t.Errorf("%v: per-iteration IterStats diverged\nparallel: %v\nserial:   %v",
				cfgs[i], par[i].Stats, serial[i].Stats)
		}
	}
	if got, want := renderMatrix(par), renderMatrix(serial); got != want {
		t.Errorf("rendered tables differ\nparallel:\n%s\nserial:\n%s", got, want)
	}
}

// TestGeneratorsDeterministicAcrossJobs runs a real generator at -jobs 1
// and -jobs 8 and requires byte-identical text output.
func TestGeneratorsDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick Table2 takes a few seconds")
	}
	render := func(jobs int) string {
		o := Options{Device: hw.P100().WithMemory(4 * hw.GiB), Quick: true, Iterations: 2, Jobs: jobs}
		var sb strings.Builder
		if err := Table2(o).WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		if err := Fig8a(o).WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if one, eight := render(1), render(8); one != eight {
		t.Errorf("-jobs 1 and -jobs 8 output differ\njobs=1:\n%s\njobs=8:\n%s", one, eight)
	}
}

func TestRunnerCacheMemoizes(t *testing.T) {
	r := NewRunner(4)
	cfg := RunConfig{Model: "resnet50", Batch: 8, System: SystemTF, Device: smallDev(), Iterations: 2}
	first := r.Run(cfg)
	second := r.Run(cfg)
	if !first.OK || !second.OK {
		t.Fatalf("runs failed: %v / %v", first.Err, second.Err)
	}
	// The counters are the identity check: one simulation, one hit.
	st := r.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Cached != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 cached", st)
	}
	if !reflect.DeepEqual(first.Stats, second.Stats) {
		t.Error("cache hit returned different IterStats than the simulated run")
	}
	// Defaulted fields canonicalize to one entry: Iterations 0 means 3,
	// Allocator "" means bfc.
	base := RunConfig{Model: "resnet50", Batch: 4, System: SystemTF, Device: smallDev()}
	explicit := base
	explicit.Iterations = 3
	explicit.Allocator = "bfc"
	a, b := r.Run(base), r.Run(explicit)
	if after := r.Stats(); after.Misses != st.Misses+1 || after.Hits != st.Hits+1 {
		t.Errorf("defaulted and explicit configs did not share a cache entry: %+v after %+v", after, st)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Error("defaulted and explicit configs returned different IterStats")
	}
}

func TestRunnerPanicBecomesFailedResult(t *testing.T) {
	r := NewRunner(2)
	r.runFn = func(cfg RunConfig, _ obs.Tracer, _ *Templates) Result {
		if cfg.Model == "boom" {
			panic("synthetic cell failure")
		}
		return Run(cfg)
	}
	res := r.RunAll([]RunConfig{
		{Model: "boom", Batch: 8, System: SystemTF, Device: smallDev(), Iterations: 2},
		{Model: "resnet50", Batch: 8, System: SystemTF, Device: smallDev(), Iterations: 2},
	})
	if res[0].OK || res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "panicked") {
		t.Errorf("panicking cell: OK=%v err=%v, want failed Result wrapping the panic", res[0].OK, res[0].Err)
	}
	if !res[1].OK {
		t.Errorf("healthy cell died with the panicking one: %v", res[1].Err)
	}
	if got := r.Stats().Panics; got != 1 {
		t.Errorf("Panics = %d, want 1", got)
	}
}

func TestRunnerContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunnerContext(ctx, 2)
	cfg := RunConfig{Model: "resnet50", Batch: 8, System: SystemTF, Device: smallDev(), Iterations: 2}
	res := r.Run(cfg)
	if res.OK || res.Err == nil || !aborted(res.Err) {
		t.Errorf("cancelled run: OK=%v err=%v, want failed Result wrapping context.Canceled", res.OK, res.Err)
	}
	// Aborted cells must not poison the cache.
	if got := r.Stats().Cached; got != 0 {
		t.Errorf("cancelled result was cached (%d entries)", got)
	}
	// A live runner can still execute the same cell.
	if res := NewRunner(2).Run(cfg); !res.OK {
		t.Errorf("fresh runner failed: %v", res.Err)
	}
}

// TestRunnerAbortedFlightNotServedToLiveCallers is the regression test
// for the cancellation race: an aborted flight's entry used to be
// removed from the cache only after done was closed, so a concurrent
// caller could observe the aborted entry as a memoized hit and be
// served someone else's cancellation. The contract now is stronger and
// atomic: the entry is dropped in the same critical section that
// completes it, and a coalesced waiter whose own context is live
// retries the cell on a fresh flight instead of inheriting the abort.
func TestRunnerAbortedFlightNotServedToLiveCallers(t *testing.T) {
	r := NewRunner(2)
	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	r.runFn = func(cfg RunConfig, _ obs.Tracer, _ *Templates) Result {
		if calls.Add(1) == 1 {
			close(started)
			<-release
			// The first flight observes its caller's cancellation.
			return Result{Config: cfg, Err: fmt.Errorf("bench: run aborted: %w", context.Canceled)}
		}
		return Result{Config: cfg, OK: true}
	}
	cfg := RunConfig{Model: "resnet50", Batch: 8, System: SystemTF, Device: smallDev(), Iterations: 2}

	ctx, cancel := context.WithCancel(context.Background())
	flight := make(chan Result, 1)
	go func() { flight <- r.RunContext(ctx, cfg) }()
	<-started

	// A live-context caller coalesces into the doomed flight.
	waiter := make(chan Result, 1)
	go func() { waiter <- r.RunContext(context.Background(), cfg) }()
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().Hits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced into the in-flight entry")
		}
		time.Sleep(100 * time.Microsecond)
	}

	cancel()
	close(release)
	if res := <-flight; !aborted(res.Err) {
		t.Fatalf("cancelled initiator returned %+v, want its own abort", res)
	}
	if res := <-waiter; !res.OK || aborted(res.Err) {
		t.Fatalf("live-context waiter was served the flight's cancellation: OK=%v err=%v", res.OK, res.Err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("waiter retry simulated %d cells in total, want 2 (aborted + fresh)", got)
	}
	if st := r.Stats(); st.Cached != 1 {
		t.Errorf("cache holds %d entries, want exactly the retried OK result", st.Cached)
	}
	// The memoized entry is the fresh OK result, never the aborted one.
	if res := r.Run(cfg); !res.OK {
		t.Errorf("warm-cache read returned a failed result: %v", res.Err)
	}
}

// TestRunnerCancelStress hammers one runner with doomed and live
// callers under the race detector: per-call contexts cancelled
// mid-flight while live-context callers race the same keys. The
// invariants: a caller whose context stays live never receives an
// aborted result — not from a warm cache, not by coalescing — and a
// fresh-context retry after the storm succeeds for every key.
func TestRunnerCancelStress(t *testing.T) {
	cfgs := make([]RunConfig, 6)
	for i := range cfgs {
		cfgs[i] = RunConfig{Model: "resnet50", Batch: int64(4 + i), System: SystemTF,
			Device: smallDev(), Iterations: 2}
	}
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		r := NewRunner(2)
		r.runFn = func(cfg RunConfig, _ obs.Tracer, _ *Templates) Result {
			time.Sleep(200 * time.Microsecond) // hold worker slots so queued cells pile up
			return Result{Config: cfg, OK: true}
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		var violations atomic.Int64
		for i := 0; i < 24; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cfg := cfgs[i%len(cfgs)]
				if i%2 == 0 {
					// Doomed caller: its context dies mid-storm; any
					// outcome is legal for it.
					r.RunContext(ctx, cfg)
					return
				}
				// Live caller: must never see an abort.
				if res := r.RunContext(context.Background(), cfg); aborted(res.Err) || !res.OK {
					violations.Add(1)
				}
			}(i)
		}
		time.Sleep(300 * time.Microsecond)
		cancel()
		wg.Wait()
		if n := violations.Load(); n != 0 {
			t.Fatalf("trial %d: %d live-context callers received aborted results", trial, n)
		}
		// Fresh-context retries succeed for every key, and no aborted
		// entry was left memoized.
		for _, cfg := range cfgs {
			if res := r.RunContext(context.Background(), cfg); !res.OK {
				t.Fatalf("trial %d: fresh-context retry failed: %v", trial, res.Err)
			}
		}
	}
}

func TestRunnerMaxBatchMatchesSerial(t *testing.T) {
	dev := hw.P100().WithMemory(4 * hw.GiB)
	cfg := RunConfig{Model: "resnet50", System: SystemTF, Device: dev}
	serial := MaxBatch(cfg)
	r := NewRunner(8)
	if got := r.MaxBatch(cfg); got != serial {
		t.Errorf("Runner.MaxBatch = %d, serial MaxBatch = %d", got, serial)
	}
	// The second search replays entirely from cache.
	before := r.Stats()
	if got := r.MaxBatch(cfg); got != serial {
		t.Errorf("cached re-search = %d, want %d", got, serial)
	}
	after := r.Stats()
	if after.Misses != before.Misses {
		t.Errorf("repeat MaxBatch simulated %d new cells", after.Misses-before.Misses)
	}
	// Batch in the input config is ignored, as for serial MaxBatch.
	withBatch := cfg
	withBatch.Batch = 999
	if got := r.MaxBatch(withBatch); got != serial {
		t.Errorf("MaxBatch with Batch set = %d, want %d", got, serial)
	}
}

func TestRunnerJobsDefault(t *testing.T) {
	if NewRunner(0).Jobs() < 1 {
		t.Error("jobs <= 0 should default to GOMAXPROCS")
	}
	if got := NewRunner(3).Jobs(); got != 3 {
		t.Errorf("Jobs() = %d, want 3", got)
	}
}
