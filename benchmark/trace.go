package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"capuchin/internal/bench"
	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/models"
	"capuchin/internal/obs"
	"capuchin/internal/serve"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// The traced run splits a workload's time by layer from outside the
// program: it replays every cell the workload simulated, serially,
// through the same public calls bench.Run makes (models.Spec.Build,
// the registered policy's Build, exec.NewSession, Session.RunIteration),
// timing each call and wrapping the policy in a timing decorator. No
// span lives inside the program.

// span is one timed call, kept in memory until the run ends.
type span struct {
	name       string
	start, end time.Duration // since the trace origin
	parent     string
	cell       int
}

// layerTotal accumulates one span name's time, count and allocations.
type layerTotal struct {
	ns     time.Duration
	n      int64
	allocs uint64
}

// tracer accumulates a traced run over one or more replay passes.
type tracer struct {
	origin time.Time
	record bool // spans are kept for the first pass only
	spans  []span
	sample []metrics.Sample
	tot    map[string]*layerTotal

	policy         policyClock // policy hook time over every replayed iteration
	guidedNs       time.Duration
	guidedPolicyNs time.Duration
	guidedAccesses int64

	// simulated statistics over the first pass's iterations; later passes
	// repeat them exactly
	stall, recompute              sim.Time
	swapBytes, prefetch, onDemand int64
	peakBytes                     float64
	simIters                      int64

	cellsReplayed int64
	untraced      time.Duration // bench.Run time of the same cells
	passes        int
	mismatches    []string
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		record: true,
		sample: []metrics.Sample{{Name: allocsMetric}},
		tot:    make(map[string]*layerTotal),
	}
}

func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

type openSpan struct {
	name, parent string
	cell         int
	t0           time.Time
	a0           uint64
}

func (t *tracer) begin(name, parent string, cell int) openSpan {
	return openSpan{name: name, parent: parent, cell: cell, a0: t.allocs(), t0: time.Now()}
}

func (t *tracer) end(o openSpan) time.Duration {
	t1 := time.Now()
	a1 := t.allocs()
	d := t1.Sub(o.t0)
	t.add(o.name, d, a1-o.a0)
	if t.record {
		t.spans = append(t.spans, span{o.name, o.t0.Sub(t.origin), t1.Sub(t.origin), o.parent, o.cell})
	}
	return d
}

func (t *tracer) add(name string, d time.Duration, allocs uint64) {
	lt := t.tot[name]
	if lt == nil {
		lt = &layerTotal{}
		t.tot[name] = lt
	}
	lt.ns += d
	lt.n++
	lt.allocs += allocs
}

// policyClock is the timing decorator's ledger.
type policyClock struct {
	ns, accessNs time.Duration
	accessCalls  int64
	endNs        time.Duration // EndIteration alone
}

// timedPolicy wraps a policy and times every hook the executor calls.
type timedPolicy struct {
	inner exec.Policy
	c     *policyClock
}

func (p *timedPolicy) Name() string         { return p.inner.Name() }
func (p *timedPolicy) TracksAccesses() bool { return p.inner.TracksAccesses() }

func (p *timedPolicy) BeginIteration(iter int, env *exec.Env) {
	t0 := time.Now()
	p.inner.BeginIteration(iter, env)
	p.c.ns += time.Since(t0)
}

func (p *timedPolicy) OnAccess(acc exec.Access, env *exec.Env) {
	t0 := time.Now()
	p.inner.OnAccess(acc, env)
	d := time.Since(t0)
	p.c.ns += d
	p.c.accessNs += d
	p.c.accessCalls++
}

func (p *timedPolicy) OnOOM(need int64, env *exec.Env) ([]*tensor.Tensor, bool) {
	t0 := time.Now()
	victims, ok := p.inner.OnOOM(need, env)
	p.c.ns += time.Since(t0)
	return victims, ok
}

func (p *timedPolicy) EndIteration(iter int, env *exec.Env) {
	t0 := time.Now()
	p.inner.EndIteration(iter, env)
	d := time.Since(t0)
	p.c.ns += d
	p.c.endNs += d
}

// timedOOMPolicy forwards the executor's optional OOMHandler hook, so
// wrapping never changes which eviction path a policy takes.
type timedOOMPolicy struct {
	*timedPolicy
	h exec.OOMHandler
}

func (p timedOOMPolicy) HandleOOM(need int64, env *exec.Env) (progress, ok bool) {
	t0 := time.Now()
	progress, ok = p.h.HandleOOM(need, env)
	p.c.ns += time.Since(t0)
	return progress, ok
}

func wrapPolicy(pol exec.Policy, c *policyClock) exec.Policy {
	tp := &timedPolicy{inner: pol, c: c}
	if h, ok := pol.(exec.OOMHandler); ok {
		return timedOOMPolicy{tp, h}
	}
	return tp
}

// sortCells orders cells so every pass replays them identically.
func sortCells(cells []bench.RunConfig) {
	sort.Slice(cells, func(i, j int) bool {
		return fmt.Sprintf("%#v", cells[i]) < fmt.Sprintf("%#v", cells[j])
	})
}

// pass replays every cell twice: untraced through bench.Run, which is
// the reference, then decomposed with timing. It records a mismatch for
// any cell whose replayed IterStats differ from bench.Run's, and returns
// the untraced time of each cell.
func (t *tracer) pass(ctx context.Context, cells []bench.RunConfig) ([]time.Duration, error) {
	untraced := make([]time.Duration, len(cells))
	refs := make([][]exec.IterStats, len(cells))
	for i, cfg := range cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		refs[i] = bench.Run(cfg).Stats
		untraced[i] = time.Since(t0)
		t.untraced += untraced[i]
	}
	for i, cfg := range cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stats, err := t.replay(i, cfg)
		if !reflect.DeepEqual(stats, refs[i]) && len(t.mismatches) < 10 {
			t.mismatches = append(t.mismatches, fmt.Sprintf("trace: replayed %s/b%d/%s differs from bench.Run (%v)",
				cfg.Model, cfg.Batch, cfg.System, err))
		}
	}
	t.passes++
	t.record = false
	return untraced, nil
}

// replay runs one cell the way bench.Run's single-device static path
// does, timing each layer.
func (t *tracer) replay(id int, cfg bench.RunConfig) ([]exec.IterStats, error) {
	if cfg.Devices > 1 || cfg.Schedule != "" {
		return nil, fmt.Errorf("trace: replay covers single-device static cells only")
	}
	cell := t.begin("cell", "", id)
	defer t.end(cell)
	t.cellsReplayed++
	spec, err := models.Get(cfg.Model)
	if err != nil {
		return nil, err
	}
	opts := graph.GraphModeOptions()
	if cfg.Mode == exec.EagerMode {
		opts = graph.EagerModeOptions()
	}
	sp := t.begin("models.build", "cell", id)
	g, err := spec.Build(cfg.Batch, opts)
	t.end(sp)
	if err != nil {
		return nil, err
	}

	sp = t.begin("exec.init", "cell", id)
	ps, ok := exec.LookupPolicy(string(cfg.System))
	if !ok {
		t.end(sp)
		return nil, fmt.Errorf("trace: unknown system %q", cfg.System)
	}
	pol, err := ps.Build(exec.BuildContext{Graph: g, Device: cfg.Device})
	if err != nil {
		t.end(sp)
		return nil, err
	}
	s, err := exec.NewSession(g, exec.Config{
		Device:              cfg.Device,
		Mode:                cfg.Mode,
		Allocator:           cfg.Allocator,
		RecordSpans:         cfg.RecordSpans,
		HostMemory:          cfg.HostMemory,
		Faults:              cfg.Faults,
		Policy:              wrapPolicy(pol, &t.policy),
		CoupledSwap:         ps.CoupledSwap || cfg.ForceCoupledSwap,
		CollectiveRecompute: ps.CollectiveRecompute,
	})
	t.end(sp)
	if err != nil {
		return nil, err
	}

	iters := cfg.Iterations
	if iters == 0 {
		iters = 3
	}
	stats := make([]exec.IterStats, 0, iters)
	for i := 0; i < iters; i++ {
		name := "exec.guided"
		if i == 0 {
			name = "exec.measured"
		}
		before := t.policy
		sp := t.begin(name, "cell", id)
		st, err := s.RunIteration()
		d := t.end(sp)
		stats = append(stats, st)
		if t.record {
			t.addSim(st)
		}
		if i == 0 && pol.TracksAccesses() {
			t.add("core.plan", t.policy.endNs-before.endNs, 0)
		}
		if i > 0 {
			t.guidedNs += d
			t.guidedPolicyNs += t.policy.ns - before.ns
			t.guidedAccesses += int64(st.Accesses)
		}
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

func (t *tracer) addSim(st exec.IterStats) {
	t.stall += st.StallTime
	t.recompute += st.RecomputeTime
	t.swapBytes += st.SwapOutBytes + st.PrefetchBytes + st.OnDemandInBytes + st.PassiveBytes
	t.prefetch += st.PrefetchBytes
	t.onDemand += st.OnDemandInBytes
	t.peakBytes = max(t.peakBytes, float64(st.PeakBytes))
	t.simIters++
}

func (t *tracer) mean(name string) (ms float64, allocs float64) {
	lt := t.tot[name]
	if lt == nil || lt.n == 0 {
		return 0, 0
	}
	return float64(lt.ns) / float64(lt.n) / 1e6, float64(lt.allocs) / float64(lt.n)
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func perCall(total time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// layerMetrics derives the replay's per-layer metrics, in raw wall time;
// simulated statistics are means per replayed iteration.
func (t *tracer) layerMetrics() map[string]float64 {
	m := make(map[string]float64)
	cellNs := float64(t.total("cell"))
	iterNs := float64(t.total("exec.measured") + t.total("exec.guided"))
	passes := float64(max(t.passes, 1))
	iters := float64(max(t.simIters, 1))
	m["models.build_ms"], m["models.allocs_per_build"] = t.mean("models.build")
	m["models.share_pct"] = pct(float64(t.total("models.build")), cellNs)
	m["exec.init_ms"], _ = t.mean("exec.init")
	m["exec.measured_ms"], m["exec.allocs_measured"] = t.mean("exec.measured")
	m["exec.guided_ms"], m["exec.allocs_guided"] = t.mean("exec.guided")
	m["core.plan_ms"], _ = t.mean("core.plan")
	if t.guidedAccesses > 0 {
		m["exec.ns_per_access"] = float64(t.guidedNs-t.guidedPolicyNs) / float64(t.guidedAccesses)
	}
	m["core.access_ns"] = perCall(t.policy.accessNs, t.policy.accessCalls)
	m["exec.share_pct"] = pct(float64(t.total("exec.init"))+iterNs-float64(t.policy.ns), cellNs)
	m["core.share_pct"] = pct(float64(t.policy.ns), cellNs)
	m["bench.cells"] = float64(t.cellsReplayed) / passes
	m["sim.stall_ms"] = t.stall.Milliseconds() / iters
	m["sim.swap_gb"] = float64(t.swapBytes) / 1e9 / iters
	m["sim.recompute_ms"] = t.recompute.Milliseconds() / iters
	m["sim.prefetch_hit_pct"] = pct(float64(t.prefetch), float64(t.prefetch+t.onDemand))
	m["memory.peak_gb"] = t.peakBytes / 1e9
	layers := float64(t.total("models.build")+t.total("exec.init")) + iterNs
	m["trace.coverage_pct"] = pct(layers, cellNs)
	if t.untraced > 0 {
		m["trace.overhead_pct"] = 100 * (cellNs - float64(t.untraced)) / float64(t.untraced)
	}
	return m
}

func (t *tracer) total(name string) time.Duration {
	if lt := t.tot[name]; lt != nil {
		return lt.ns
	}
	return 0
}

// layerSplit is implemented by workloads whose time the cell replay does
// not split on its own; split runs once per pass and its values are
// averaged over passes.
type layerSplit interface {
	split(ctx context.Context, detail repResult, cells []bench.RunConfig, untraced []time.Duration) (map[string]float64, error)
}

// split times what serve adds to a simulation: serve's tracer shape (a
// collector plus a JSONL stream) and the result encoding; the detailed
// repetition's client timings give submit and wait latency.
func (w *serveWorkload) split(ctx context.Context, detail repResult, cells []bench.RunConfig, untraced []time.Duration) (map[string]float64, error) {
	var traceNs, encodeNs, runNs time.Duration
	var events int
	for i, cfg := range cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		t0 := time.Now()
		res := bench.RunTraced(cfg, obs.Tee(obs.NewCollector(), obs.NewJSONLTracer(&buf)))
		traced := time.Since(t0)
		t1 := time.Now()
		if _, err := serve.EncodeResult(res); err != nil {
			return nil, fmt.Errorf("serve: encode: %w", err)
		}
		encodeNs += time.Since(t1)
		traceNs += traced - untraced[i]
		runNs += traced
		events += buf.Len()
	}
	n := int64(len(cells))
	m := map[string]float64{
		"obs.trace_ms":  perCall(traceNs, n) / 1e6,
		"obs.encode_ms": perCall(encodeNs, n) / 1e6,
		"obs.events_mb": float64(events) / float64(max(n, 1)) / 1e6,
	}
	so := detail.outputs.(serveOutputs)
	var submit, wait, freshLatency, repeatLatency float64
	var nOK, nFresh, nRepeat int
	for i, o := range so.outcomes {
		if !o.ok {
			continue
		}
		nOK++
		submit += o.submit
		wait += o.wait
		if w.fresh[i] {
			nFresh++
			freshLatency += o.submit + o.wait
		} else {
			nRepeat++
			repeatLatency += o.submit + o.wait
		}
	}
	if nOK > 0 {
		m["serve.submit_ms"] = submit / float64(nOK)
		m["serve.wait_ms"] = wait / float64(nOK)
	}
	if nFresh > 0 {
		m["serve.overhead_ms"] = freshLatency/float64(nFresh) - m["obs.encode_ms"] - perCall(runNs, n)/1e6
	}
	if nRepeat > 0 {
		m["serve.repeat_ms"] = repeatLatency / float64(nRepeat)
	}
	st := so.stats
	submissions := float64(st.Admitted + st.Deduped + st.Shed)
	m["serve.dedup_pct"] = pct(float64(st.Deduped), submissions)
	m["serve.shed_pct"] = pct(float64(st.Shed), submissions)
	if st.StoredRuns > 0 {
		m["serve.mb_per_run"] = (float64(detail.heapBytes) - float64(so.heapBefore)) / float64(st.StoredRuns) / 1e6
	}
	return m, nil
}

// split times FleetScenarios twice on one Runner: the cold call profiles
// the job menu on the executor, the warm call finds every profile cell
// cached, so it is the fleet event loop alone.
func (w *fleetWorkload) split(ctx context.Context, _ repResult, _ []bench.RunConfig, _ []time.Duration) (map[string]float64, error) {
	o := bench.Options{Runner: bench.NewRunnerContext(ctx, loadThreads), Quick: w.quick}
	t0 := time.Now()
	if _, err := bench.FleetScenarios(o, w.opts); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	cold := time.Since(t0)
	t1 := time.Now()
	fc, err := bench.FleetScenarios(o, w.opts)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	warm := time.Since(t1)
	var admissions int64
	for _, r := range fc.Runs {
		admissions += int64(r.Admissions)
	}
	return map[string]float64{
		"fleet.sim_s":            warm.Seconds(),
		"fleet.profile_s":        (cold - warm).Seconds(),
		"fleet.us_per_admission": perCall(warm, admissions) / 1e3,
	}, nil
}

// traceRun replays the cells of the detailed repetition in passes until
// the deadline (at least one pass) and returns every per-layer metric;
// layers the workload does not exercise read 0. calib holds the set-up's
// calibration times in seconds; one more is taken before each pass, and
// host times are scaled to reference-host time by their median.
func traceRun(ctx context.Context, w workload, detail repResult, deadline time.Time, chromePath string, calib []float64) (map[string]float64, []string, error) {
	cells := append([]bench.RunConfig(nil), detail.cells...)
	sortCells(cells)
	t := newTracer()
	splits := make(map[string]float64)
	var passTime time.Duration
	for t.passes == 0 || time.Now().Add(passTime).Before(deadline) {
		p0 := time.Now()
		calib = append(calib, calibrate().Seconds())
		untraced, err := t.pass(ctx, cells)
		if err != nil {
			return nil, nil, err
		}
		if ls, ok := w.(layerSplit); ok {
			vals, err := ls.split(ctx, detail, cells, untraced)
			if err != nil {
				return nil, nil, err
			}
			for k, v := range vals {
				splits[k] += v
			}
		}
		passTime = time.Since(p0)
	}
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	for k, v := range t.layerMetrics() {
		m[k] = v
	}
	for k, v := range splits {
		m[k] = v / float64(t.passes)
	}
	slow := slowdown(calib)
	for _, d := range perLayer {
		if d.hostTime() {
			m[d.Name] /= slow
		}
	}
	for k, v := range detail.virtual {
		m[k] = v
	}
	m["bench.hit_pct"] = detail.hitPct
	if chromePath != "" {
		if err := writeChrome(chromePath, t.spans); err != nil {
			return nil, nil, err
		}
	}
	return m, t.mismatches, nil
}

// writeChrome writes spans in the Chrome trace event format, loadable in
// chrome://tracing and Perfetto. Each layer gets its own track.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tids := map[string]int{"cell": 1, "models": 2, "exec": 3}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		cat, _, _ := strings.Cut(s.name, ".")
		events = append(events, event{
			Name: s.name, Cat: cat, Ph: "X",
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: tids[cat],
			Args: map[string]any{"cell": s.cell, "parent": s.parent},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
