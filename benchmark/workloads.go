package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"capuchin/internal/bench"
	"capuchin/internal/exec"
	"capuchin/internal/hw"
	"capuchin/internal/models"
	"capuchin/internal/obs"
	"capuchin/internal/serve"
)

// loadThreads bounds the benchmark's load: the reference host has two
// cores, so every workload keeps at most two simulations or clients busy.
const loadThreads = 2

// size scales the workloads: full is what the benchmark measures, tiny
// keeps the package's tests short.
type size struct {
	maxbatchModels []string
	maxbatchMemGiB int64
	trainCells     int
	trainIters     int
	serveModels    []string
	serveBatches   []int64
	fleet          bench.FleetOptions
	fleetQuick     bool
	setups         int
}

var full = size{
	maxbatchModels: []string{"vgg16", "resnet50", "resnet152", "inceptionv3", "inceptionv4", "bert"},
	maxbatchMemGiB: 16,
	trainCells:     len(trainBase),
	trainIters:     400,
	// lstm and gru are left out of serve: each run's event stream holds
	// 15-23 MB, and a store of a few hundred of them outgrows a small
	// host's memory.
	serveModels:  []string{"alexnet", "mobilenetv2", "resnet50"},
	serveBatches: []int64{1, 2, 4, 8, 12, 16, 24, 32},
	// The arrival stream is fixed: between seeds, fleet host time swings
	// by a third, which would bury any regression.
	fleet:  bench.FleetOptions{Jobs: 800, Devices: 32, Seed: 1},
	setups: 3,
}

// workloadSpec names a workload, says why the benchmark runs it, and
// builds its inputs from a seed.
type workloadSpec struct {
	name, why string
	make      func(seed uint64, sz size) workload
}

var workloads = []workloadSpec{
	{"maxbatch", "Table 2 sweep: 24 max-batch searches, ~410 short cold cells that each pay graph build, session init, a measured iteration and planning; no cache repeats, no HTTP", newMaxbatch},
	{"train", "five 400-iteration Capuchin runs from no to heavy memory pressure: the steady guided-iteration hot path (exec, BFC, streams, OnAccess); graph build is under 1%", newTrain},
	{"serve", "in-process capuchin-serve on loopback, 2 closed-loop clients: 70% of requests are new configs that pay admission, a traced run and encoding; 30% repeats take the dedup path", newServe},
	{"fleet", "FleetScenarios with 800 jobs on 32 devices: the fleet event loop and allocator queries dominate; bypasses guided iterations and HTTP", newFleet},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// workload is one benchmark workload with its seeded inputs.
type workload interface {
	// rep runs one repetition on a fresh Runner or Server. detail asks
	// for the per-request timings a traced run splits by layer.
	rep(ctx context.Context, detail bool) (repResult, error)
	// check verifies the last repetition's outputs against independent
	// runs and returns one message per failed check.
	check(last repResult) []string
}

// repResult is what one repetition reports.
type repResult struct {
	// elapsed covers the requests only: fixture construction, the
	// closing GC and teardown are outside it.
	elapsed time.Duration
	// work counts units of work attempted (max-batch searches,
	// iterations, requests, fleet jobs); failed counts those that failed.
	work, failed int64
	// latencies holds one entry per completed request, in milliseconds;
	// serve keeps new requests only.
	latencies []float64
	// heapBytes is the live heap after a GC with the fixture reachable.
	heapBytes uint64
	// virtual holds simulated outputs, which repeat exactly.
	virtual map[string]float64
	// cells lists the cells the repetition simulated, for the traced
	// replay; hitPct is the runner's cache hit rate.
	cells  []bench.RunConfig
	hitPct float64
	// outputs carries workload-specific results for check and for the
	// traced run's layer split.
	outputs any
}

// trimmed drops the outputs and cells only check and the traced run use.
func (r repResult) trimmed() repResult {
	r.outputs, r.cells = nil, nil
	return r
}

// cellFailed reports a cell that failed for a reason other than running
// out of simulated device memory, which max-batch searches expect.
func cellFailed(res bench.Result) bool {
	return !res.OK && !errors.Is(res.Err, exec.ErrIterationOOM)
}

// observeCells records every cell r actually simulates. The hook returns
// no tracer, so cells run on the untraced path.
func observeCells(r *bench.Runner) func() []bench.RunConfig {
	var mu sync.Mutex
	var cells []bench.RunConfig
	r.Observe(func(cfg bench.RunConfig) obs.Tracer {
		mu.Lock()
		cells = append(cells, cfg)
		mu.Unlock()
		return nil
	})
	return func() []bench.RunConfig {
		mu.Lock()
		defer mu.Unlock()
		return append([]bench.RunConfig(nil), cells...)
	}
}

func hitPct(st bench.RunnerStats) float64 {
	if st.Hits+st.Misses == 0 {
		return 0
	}
	return 100 * float64(st.Hits) / float64(st.Hits+st.Misses)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// maxbatch is the paper's Table 2 sweep, submitted all at once as
// Runner.MaxBatchAll does; a request is one search, timed from the
// sweep's start to its answer.
type maxbatch struct {
	searches []bench.RunConfig
}

var maxbatchSystems = []bench.System{bench.SystemTF, bench.SystemVDNN, bench.SystemOpenAIMemory, bench.SystemCapuchin}

func newMaxbatch(seed uint64, sz size) workload {
	dev := hw.P100().WithMemory(sz.maxbatchMemGiB * hw.GiB)
	var s []bench.RunConfig
	for _, m := range sz.maxbatchModels {
		for _, sys := range maxbatchSystems {
			s = append(s, bench.RunConfig{Model: m, System: sys, Device: dev})
		}
	}
	// The seed permutes the submission order only.
	newRNG(seed).shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return &maxbatch{searches: s}
}

func (w *maxbatch) rep(ctx context.Context, _ bool) (repResult, error) {
	r := bench.NewRunnerContext(ctx, loadThreads)
	cells := observeCells(r)
	maxes := make([]int64, len(w.searches))
	lat := make([]float64, len(w.searches))
	start := time.Now()
	var wg sync.WaitGroup
	for i, cfg := range w.searches {
		wg.Add(1)
		go func(i int, cfg bench.RunConfig) {
			defer wg.Done()
			maxes[i] = r.MaxBatch(cfg)
			lat[i] = msSince(start)
		}(i, cfg)
	}
	wg.Wait()
	out := repResult{elapsed: time.Since(start), latencies: lat, heapBytes: liveHeap()}
	out.hitPct = hitPct(r.Stats())
	out.cells = cells()
	// The work is the searches, not the cells: a search that finds its
	// answer with fewer cells does the same work sooner.
	out.work = int64(len(w.searches))
	failed := make(map[string]bool)
	for _, c := range out.cells {
		if cellFailed(r.Run(c)) { // a cache hit: the result is already there
			failed[c.Model+"/"+string(c.System)] = true
		}
	}
	out.failed = int64(len(failed))
	byKey := make(map[string]int64, len(maxes))
	for i, cfg := range w.searches {
		byKey[cfg.Model+"/"+string(cfg.System)] = maxes[i]
	}
	out.outputs = byKey
	out.virtual = maxbatchVirtual(byKey)
	return out, ctx.Err()
}

// maxbatchVirtual derives the simulated outputs of a sweep: Capuchin's
// gain over TF-ori and TF-ori's error against the paper's Table 2.
func maxbatchVirtual(byKey map[string]int64) map[string]float64 {
	var gains []float64
	var errSum float64
	var errN int
	for _, m := range models.Names() {
		tf, ok := byKey[m+"/"+string(bench.SystemTF)]
		if !ok || tf == 0 {
			continue
		}
		if c, ok := byKey[m+"/"+string(bench.SystemCapuchin)]; ok {
			gains = append(gains, float64(c)/float64(tf))
		}
		spec, _ := models.Get(m)
		if spec.PaperMaxBatchTF > 0 {
			errSum += math.Abs(float64(tf-spec.PaperMaxBatchTF)) / float64(spec.PaperMaxBatchTF)
			errN++
		}
	}
	v := map[string]float64{"bench.maxbatch_gain": geomean(gains)}
	if errN > 0 {
		v["bench.paper_err_pct"] = 100 * errSum / float64(errN)
	}
	return v
}

// check holds the sweep to the paper's headline claim: Capuchin's max
// batch never falls below TF-ori's.
func (w *maxbatch) check(last repResult) []string {
	byKey := last.outputs.(map[string]int64)
	var msgs []string
	for _, cfg := range w.searches {
		if cfg.System != bench.SystemCapuchin {
			continue
		}
		tf, c := byKey[cfg.Model+"/"+string(bench.SystemTF)], byKey[cfg.Model+"/"+string(cfg.System)]
		if c < tf {
			msgs = append(msgs, fmt.Sprintf("maxbatch: %s capuchin max batch %d below tf-ori's %d", cfg.Model, c, tf))
		}
	}
	return msgs
}

// train runs Capuchin training cells back to back through bench.Run; a
// request is one training run.
type train struct {
	cells []bench.RunConfig
}

// trainBase spans memory pressure on a 16 GiB P100: resnet50/b160 only
// tracks accesses (§6.3.2), vgg16/b300 swaps, and the other three swap
// and recompute.
var trainBase = []struct {
	model string
	batch int64
}{{"resnet50", 160}, {"vgg16", 300}, {"resnet50", 512}, {"inceptionv3", 400}, {"bert", 128}}

// newTrain ignores the seed: scaling the batches would change each run's
// swap and recompute work, so runs of different seeds would do different
// amounts of work.
func newTrain(_ uint64, sz size) workload {
	w := &train{}
	for _, c := range trainBase[:sz.trainCells] {
		w.cells = append(w.cells, bench.RunConfig{Model: c.model, Batch: c.batch, System: bench.SystemCapuchin,
			Device: hw.P100(), Iterations: sz.trainIters})
	}
	return w
}

func (w *train) rep(ctx context.Context, _ bool) (repResult, error) {
	results := make([]bench.Result, 0, len(w.cells))
	out := repResult{cells: w.cells}
	start := time.Now()
	for _, cfg := range w.cells {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		t0 := time.Now()
		res := bench.Run(cfg)
		out.latencies = append(out.latencies, msSince(t0))
		// Keep what check needs and drop the Session, as a caller running
		// one training job at a time would.
		results = append(results, bench.Result{Config: res.Config, OK: res.OK, Err: res.Err, Stats: res.Stats})
	}
	out.elapsed = time.Since(start)
	out.heapBytes = liveHeap()
	var speeds []float64
	for _, res := range results {
		iters := int64(res.Config.Iterations)
		out.work += iters
		if !res.OK {
			out.failed += iters
			continue
		}
		speeds = append(speeds, tailSamplesPerSec(res, 100))
	}
	out.outputs = results
	out.virtual = map[string]float64{"sim.samples_per_s": geomean(speeds)}
	return out, nil
}

// tailSamplesPerSec is simulated training speed over a run's last k
// iterations.
func tailSamplesPerSec(res bench.Result, k int) float64 {
	st := res.Stats
	if len(st) > k {
		st = st[len(st)-k:]
	}
	var secs float64
	for _, s := range st {
		secs += s.Duration.Seconds()
	}
	if secs == 0 {
		return 0
	}
	return float64(res.Config.Batch) * float64(len(st)) / secs
}

// check is the fingerprint oracle: whatever Capuchin swapped or
// recomputed, every iteration's loss and parameters must match an
// uncapped TF-ori run of the same model and batch.
func (w *train) check(last repResult) []string {
	var msgs []string
	for _, res := range last.outputs.([]bench.Result) {
		cfg := res.Config
		ref := bench.Run(bench.RunConfig{Model: cfg.Model, Batch: cfg.Batch, System: bench.SystemTF,
			Device: cfg.Device.WithMemory(256 * hw.GiB), Iterations: cfg.Iterations})
		name := fmt.Sprintf("%s/b%d", cfg.Model, cfg.Batch)
		if !res.OK || !ref.OK || len(res.Stats) != len(ref.Stats) {
			msgs = append(msgs, fmt.Sprintf("train: %s: run %v, uncapped reference %v", name, res.Err, ref.Err))
			continue
		}
		for i := range res.Stats {
			a, b := res.Stats[i], ref.Stats[i]
			if a.LossFingerprint != b.LossFingerprint || a.ParamFingerprint != b.ParamFingerprint {
				msgs = append(msgs, fmt.Sprintf("train: %s: iteration %d fingerprints differ from the uncapped run", name, i))
				break
			}
		}
	}
	return msgs
}

// serveWorkload drives an in-process capuchin-serve over loopback HTTP
// with closed-loop clients: each submits a run, waits for its result,
// then sends the next. A request is one submit plus wait.
type serveWorkload struct {
	reqs   []serve.RunRequest
	bodies [][]byte
	// fresh marks the first submission of each config; cells holds their
	// canonical configs, the runs the server simulates. sample indexes
	// the requests whose served bytes check compares against direct runs.
	fresh  []bool
	cells  []bench.RunConfig
	sample map[int]bench.RunConfig
}

// serveNewShare is the share of requests that submit a config not yet
// seen in the repetition; the rest repeat one.
const (
	serveNewShare   = 0.7
	serveSampled    = 8
	serveMaxRetries = 3
)

// newServe submits every config of the menu (models x batches x
// {tf-ori, capuchin} x {2, 4, 16} GiB, 3 iterations) once per repetition,
// in seeded order, and mixes in seeded repeats of configs already
// submitted. Every seed thus does the same simulation work; a random
// subset of a larger menu would not.
func newServe(seed uint64, sz size) workload {
	rng := newRNG(seed)
	var menu []serve.RunRequest
	for _, m := range sz.serveModels {
		for _, b := range sz.serveBatches {
			for _, sys := range []string{"tf-ori", "capuchin"} {
				for _, mem := range []float64{2, 4, 16} {
					menu = append(menu, serve.RunRequest{Model: m, Batch: b, System: sys, Iterations: 3, MemGiB: mem})
				}
			}
		}
	}
	rng.shuffle(len(menu), func(i, j int) { menu[i], menu[j] = menu[j], menu[i] })
	nNew := len(menu)
	n := int(math.Round(float64(nNew) / serveNewShare))
	fresh := make([]bool, n)
	for i := 0; i < nNew; i++ {
		fresh[i] = true
	}
	// The first request is always new; the rest are shuffled.
	rng.shuffle(n-1, func(i, j int) { fresh[i+1], fresh[j+1] = fresh[j+1], fresh[i+1] })
	w := &serveWorkload{fresh: fresh, sample: make(map[int]bench.RunConfig)}
	stride := max(1, nNew/serveSampled)
	next := 0
	for i := 0; i < n; i++ {
		var rr serve.RunRequest
		if fresh[i] {
			rr = menu[next]
			cfg, err := rr.ToRunConfig()
			if err != nil {
				panic(fmt.Sprintf("serve menu entry %+v: %v", rr, err)) // the menu above is all valid
			}
			key := bench.CanonicalConfig(cfg)
			w.cells = append(w.cells, key)
			if next%stride == 0 && len(w.sample) < serveSampled {
				w.sample[i] = key
			}
			next++
		} else {
			rr = w.reqs[rng.intn(i)] // a config already submitted this repetition
		}
		body, _ := json.Marshal(rr) // a RunRequest always marshals
		w.reqs = append(w.reqs, rr)
		w.bodies = append(w.bodies, body)
	}
	return w
}

// serveOutcome is one request's client-side view.
type serveOutcome struct {
	ok           bool
	submit, wait float64 // ms
	body         []byte  // kept for sampled requests only
	err          error
}

// serveOutputs is what a serve repetition hands to check and to the
// traced run.
type serveOutputs struct {
	outcomes   []serveOutcome
	stats      serve.Stats
	heapBefore uint64
}

func (w *serveWorkload) rep(ctx context.Context, detail bool) (repResult, error) {
	out := repResult{cells: w.cells}
	var heapBefore uint64
	if detail {
		heapBefore = liveHeap()
	}
	s := serve.NewServer(serve.Config{Workers: loadThreads, Jobs: loadThreads})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return out, fmt.Errorf("serve: listen: %w", err)
	}
	sctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.ServeListener(sctx, ln) }()
	tr := &http.Transport{MaxIdleConnsPerHost: loadThreads}
	client := &http.Client{Transport: tr}
	base := "http://" + ln.Addr().String()

	outcomes := make([]serveOutcome, len(w.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < loadThreads; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(w.reqs) {
					return
				}
				outcomes[i] = w.do(client, base, i)
			}
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	out.heapBytes = liveHeap()
	stats := s.Snapshot()
	stop()
	serr := <-served
	tr.CloseIdleConnections()

	// Latency is that of new requests only. Repeats answer in about 0.1 ms
	// and alexnet runs in a few, so a median pooled over both lands
	// between sparse groups and jumps between identical runs; the repeats'
	// latency is serve.repeat_ms in the traced run.
	for i, o := range outcomes {
		out.work++
		if !o.ok {
			if out.failed == 0 {
				fmt.Fprintln(os.Stderr, "benchmark: serve: first failed request:", o.err)
			}
			out.failed++
			continue
		}
		if w.fresh[i] {
			out.latencies = append(out.latencies, o.submit+o.wait)
		}
	}
	out.outputs = serveOutputs{outcomes: outcomes, stats: stats, heapBefore: heapBefore}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if serr != nil {
		return out, fmt.Errorf("serve: shutdown: %w", serr)
	}
	return out, nil
}

// do sends request i: submit (retrying a 429 up to serveMaxRetries
// times), then long-poll the result.
func (w *serveWorkload) do(client *http.Client, base string, i int) serveOutcome {
	var o serveOutcome
	t0 := time.Now()
	var reply struct {
		ID string `json:"id"`
	}
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(base+"/v1/runs", "application/json", bytes.NewReader(w.bodies[i]))
		if err != nil {
			o.err = err
			return o
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < serveMaxRetries {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
			time.Sleep(time.Duration(attempt+1) * time.Millisecond)
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			o.err = fmt.Errorf("submit: status %d", resp.StatusCode)
			return o
		}
		if err != nil {
			o.err = fmt.Errorf("submit reply: %w", err)
			return o
		}
		break
	}
	t1 := time.Now()
	o.submit = float64(t1.Sub(t0)) / float64(time.Millisecond)
	resp, err := client.Get(base + "/v1/runs/" + reply.ID + "?wait=1")
	if err != nil {
		o.err = err
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.wait = msSince(t1)
	if err != nil || resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("result: status %d, %v", resp.StatusCode, err)
		return o
	}
	if _, ok := w.sample[i]; ok {
		o.body = body
	}
	o.ok = true
	return o
}

// check compares the served bytes of the sampled requests with a direct
// bench.Run of the same canonical config, and the server's ledger with
// the request mix.
func (w *serveWorkload) check(last repResult) []string {
	so := last.outputs.(serveOutputs)
	var msgs []string
	for i, cfg := range w.sample {
		direct, err := serve.EncodeResult(bench.Run(cfg))
		if err != nil || !bytes.Equal(so.outcomes[i].body, direct) {
			msgs = append(msgs, fmt.Sprintf("serve: request %d: served bytes differ from a direct run (%v)", i, err))
		}
	}
	if so.stats.StoredRuns != len(w.cells) {
		msgs = append(msgs, fmt.Sprintf("serve: %d stored runs, want %d distinct configs", so.stats.StoredRuns, len(w.cells)))
	}
	return msgs
}

// fleetWorkload is the fleet experiment in full mode; a request is one
// FleetScenarios call (three scenarios over one arrival stream).
type fleetWorkload struct {
	opts  bench.FleetOptions
	quick bool
}

func newFleet(_ uint64, sz size) workload {
	return &fleetWorkload{opts: sz.fleet, quick: sz.fleetQuick}
}

func (w *fleetWorkload) rep(ctx context.Context, _ bool) (repResult, error) {
	r := bench.NewRunnerContext(ctx, loadThreads)
	cells := observeCells(r)
	start := time.Now()
	fc, err := bench.FleetScenarios(bench.Options{Runner: r, Quick: w.quick}, w.opts)
	out := repResult{elapsed: time.Since(start), heapBytes: liveHeap()}
	out.latencies = []float64{float64(out.elapsed) / float64(time.Millisecond)}
	out.hitPct = hitPct(r.Stats())
	out.cells = cells()
	out.work = int64(3 * w.opts.Jobs)
	if err != nil {
		out.failed = out.work
		return out, fmt.Errorf("fleet: %w", err)
	}
	out.outputs = fc
	out.virtual = fleetVirtual(fc)
	return out, ctx.Err()
}

// fleetVirtual reads the flagship predictive+capuchin scenario.
func fleetVirtual(fc bench.FleetComparison) map[string]float64 {
	flag := fc.Runs[len(fc.Runs)-1]
	return map[string]float64{
		"fleet.goodput_pct": flag.GoodputPct,
		"fleet.jct_p99_s":   flag.P99JCTMillis / 1000,
	}
}

// check verifies the fleet's job accounting: every job of every scenario
// ends completed or rejected.
func (w *fleetWorkload) check(last repResult) []string {
	var msgs []string
	for _, run := range last.outputs.(bench.FleetComparison).Runs {
		if run.Completed+run.Rejected != run.Jobs {
			msgs = append(msgs, fmt.Sprintf("fleet: %s/%s: %d completed + %d rejected != %d jobs",
				run.Mode, run.Manager, run.Completed, run.Rejected, run.Jobs))
		}
	}
	return msgs
}
