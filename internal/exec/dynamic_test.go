package exec

import (
	"fmt"
	"reflect"
	"testing"

	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/ops"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// dynCNN is testCNN parameterized by batch size (the "seq" axis of a
// CNN is absent, so dynamic tests drift the batch).
func dynCNN(t *testing.T, batch int64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder("dyncnn")
	x := b.Input("data", tensor.Shape{batch, 3, 64, 64}, tensor.Float32)
	labels := b.Input("labels", tensor.Shape{batch, 10}, tensor.Float32)
	h := x
	ch := int64(16)
	for i := 0; i < 4; i++ {
		w := b.Variable(fmt.Sprintf("conv%d_w", i), tensor.Shape{ch * 2, h.Shape[1], 3, 3})
		h = b.Apply1(fmt.Sprintf("conv%d", i), ops.Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, h, w)
		h = b.Apply1(fmt.Sprintf("relu%d", i), ops.ReLU, h)
		ch *= 2
	}
	h = b.Apply1("gap", ops.Pool{Kind: ops.AvgPoolKind}, h)
	flat := b.Apply1("flatten", ops.Reshape{To: tensor.Shape{batch, h.Shape.Elems() / batch}}, h)
	w := b.Variable("fc_w", tensor.Shape{flat.Shape[1], 10})
	logits := b.Apply1("fc", ops.MatMul{}, flat, w)
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, logits, labels)
	g, err := b.Build(loss, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sched adapts a function to ShapeSchedule.
type sched func(iter int) (int64, int64)

func (f sched) At(iter int) (int64, int64) { return f(iter) }

func dynConfig(t *testing.T, mem int64) DynamicConfig {
	t.Helper()
	return DynamicConfig{
		Base: Config{Device: device(mem), Policy: lruPolicy{}},
		Build: func(batch, seq int64) (*graph.Graph, error) {
			return dynCNN(t, batch), nil
		},
	}
}

func TestDynamicValidation(t *testing.T) {
	cfg := dynConfig(t, 2*hw.GiB)
	cfg.Build = nil
	if _, err := NewDynamicSession(cfg); err == nil {
		t.Error("missing Build accepted")
	}
	cfg = dynConfig(t, 2*hw.GiB)
	if _, err := NewDynamicSession(cfg); err == nil {
		t.Error("missing Schedule accepted")
	}
}

// TestDynamicConstantMatchesStatic is the exec-level differential: a
// dynamic run under a constant schedule must be indistinguishable from
// running the single session directly.
func TestDynamicConstantMatchesStatic(t *testing.T) {
	const iters = 4
	cfg := dynConfig(t, 1*hw.GiB)
	cfg.Schedule = sched(func(int) (int64, int64) { return 8, 0 })
	d, err := NewDynamicSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dynStats, err := d.Run(iters)
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSession(dynCNN(t, 8), cfg.Base)
	if err != nil {
		t.Fatal(err)
	}
	statStats, err := s.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dynStats, statStats) {
		t.Errorf("constant-schedule dynamic run diverged from static:\n dyn %v\n sta %v", dynStats, statStats)
	}
	ds := d.Stats()
	if ds.Switches != 0 || ds.SessionBuilds != 1 || ds.Signatures != 1 {
		t.Errorf("constant schedule produced structural events: %+v", ds)
	}
}

func TestDynamicSwitchingDeterministicAndCached(t *testing.T) {
	alternate := sched(func(iter int) (int64, int64) {
		if iter/2%2 == 0 {
			return 8, 0
		}
		return 4, 0
	})
	run := func() ([]IterStats, DynamicStats, []BucketStats) {
		cfg := dynConfig(t, 1*hw.GiB)
		cfg.Schedule = alternate
		d, err := NewDynamicSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := d.Run(8)
		if err != nil {
			t.Fatal(err)
		}
		return stats, d.Stats(), d.Buckets()
	}
	a, as, ab := run()
	b, bs, bb := run()
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(as, bs) || !reflect.DeepEqual(ab, bb) {
		t.Fatal("dynamic run is not deterministic")
	}
	// ABAB over periods of two: 3 switches, but only 2 sessions built.
	if as.Switches != 3 {
		t.Errorf("switches = %d, want 3", as.Switches)
	}
	if as.SessionBuilds != 2 || as.SessionEvicts != 0 {
		t.Errorf("session builds/evicts = %d/%d, want 2/0", as.SessionBuilds, as.SessionEvicts)
	}
	if as.Signatures != 2 || len(ab) != 2 {
		t.Errorf("signatures = %d (buckets %d), want 2", as.Signatures, len(ab))
	}
	// Iteration numbering is global across sessions.
	for i, st := range a {
		if st.Iter != i {
			t.Errorf("stats[%d].Iter = %d", i, st.Iter)
		}
	}
	// Virtual time is monotonic across switches: total bucket durations
	// are positive and the per-bucket iteration counts add up.
	total := 0
	for _, bk := range ab {
		if bk.Duration <= 0 {
			t.Errorf("bucket %s has non-positive duration", bk.Sig)
		}
		total += bk.Iterations
	}
	if total != 8 {
		t.Errorf("bucket iterations sum to %d, want 8", total)
	}
}

func TestDynamicSessionLRUEviction(t *testing.T) {
	cfg := dynConfig(t, 1*hw.GiB)
	// Three signatures round-robin: the cache can hold only two, so each
	// revisit of an evicted signature rebuilds its session.
	cfg.Schedule = sched(func(iter int) (int64, int64) {
		return int64(4 + 2*(iter%3)), 0
	})
	d, err := NewDynamicSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.maxSessions = 2
	if _, err := d.Run(9); err != nil {
		t.Fatal(err)
	}
	ds := d.Stats()
	if ds.Signatures != 3 {
		t.Errorf("signatures = %d, want 3", ds.Signatures)
	}
	if ds.SessionEvicts == 0 {
		t.Error("no session evictions with maxSessions=2 and 3 signatures")
	}
	if ds.SessionBuilds <= 3 {
		t.Errorf("session builds = %d, want rebuilds beyond the initial 3", ds.SessionBuilds)
	}
}

// stubReplanner records the re-planning calls the engine makes.
type stubReplanner struct {
	lruPolicy
	planned     bool
	begins      []string
	hits        map[string]bool
	invalidated []string
}

func (r *stubReplanner) BeginSignature(sig string, env *Env) bool {
	r.begins = append(r.begins, sig)
	return r.hits[sig]
}

func (r *stubReplanner) InvalidatePlan(reason string, env *Env) {
	r.invalidated = append(r.invalidated, reason)
	r.planned = false
}

func (r *stubReplanner) Planned() bool { return r.planned }

func TestDynamicReplannerSignatureFlow(t *testing.T) {
	rp := &stubReplanner{planned: true, hits: map[string]bool{"b8": true}}
	cfg := dynConfig(t, 2*hw.GiB)
	cfg.Base.Policy = rp
	cfg.Schedule = sched(func(iter int) (int64, int64) {
		if iter%2 == 0 {
			return 8, 0
		}
		return 4, 0
	})
	d, err := NewDynamicSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(4); err != nil {
		t.Fatal(err)
	}
	// Every switch (and the initial activation) announces its signature.
	want := []string{"b8", "b4", "b8", "b4"}
	if !reflect.DeepEqual(rp.begins, want) {
		t.Errorf("BeginSignature calls = %v, want %v", rp.begins, want)
	}
	// b8 reports a cached plan; its revisit counts as a plan-cache hit
	// (the initial activation does not).
	if ds := d.Stats(); ds.PlanCacheHits != 1 {
		t.Errorf("plan cache hits = %d, want 1", ds.PlanCacheHits)
	}
}

func TestStaleReason(t *testing.T) {
	base := driftBaseline{accesses: 100, onDemand: 2, stall: sim.Millisecond}
	ok := IterStats{Accesses: 100, OnDemandInCount: 2, StallTime: sim.Millisecond}
	if r := staleReason(base, ok); r != "" {
		t.Errorf("steady iteration flagged stale: %q", r)
	}
	// 3% access drift is within the 5% tolerance; 10% is not.
	if r := staleReason(base, IterStats{Accesses: 103, OnDemandInCount: 2}); r != "" {
		t.Errorf("3%% drift flagged: %q", r)
	}
	if r := staleReason(base, IterStats{Accesses: 110, OnDemandInCount: 2}); r == "" {
		t.Error("10% access drift not flagged")
	}
	// On-demand surge: >2x the floored baseline and above the minimum count.
	if r := staleReason(base, IterStats{Accesses: 100, OnDemandInCount: 9}); r == "" {
		t.Error("on-demand surge not flagged")
	}
	if r := staleReason(base, IterStats{Accesses: 100, OnDemandInCount: 3}); r != "" {
		t.Errorf("mild on-demand uptick flagged: %q", r)
	}
	// Stall surge: far beyond baseline.
	if r := staleReason(base, IterStats{Accesses: 100, OnDemandInCount: 2, StallTime: 20 * sim.Millisecond}); r == "" {
		t.Error("stall surge not flagged")
	}
}

// TestStaleReasonZeroBaseline is the regression test for the
// zero-baseline misfire: a clean first guided iteration records zero
// stall and zero on-demand swap-ins, and the pre-fix ratio tests then
// flagged the faintest later noise (2ms of stall against a 1ms absolute
// term; 4 on-demand ins against a baseline floored at 1) as a stale
// plan, burning a bounded re-measurement pass on nothing. Both
// baselines are now floored at the absolute minimums.
func TestStaleReasonZeroBaseline(t *testing.T) {

	// Zero-stall baseline: 2ms of stall is noise, not staleness.
	zeroStall := driftBaseline{accesses: 100, onDemand: 2, stall: 0}
	if r := staleReason(zeroStall, IterStats{Accesses: 100, OnDemandInCount: 2, StallTime: 2 * sim.Millisecond}); r != "" {
		t.Errorf("2ms stall against zero-stall baseline flagged: %q", r)
	}
	// A genuine surge still fires: beyond stallFactor * minStall.
	if r := staleReason(zeroStall, IterStats{Accesses: 100, OnDemandInCount: 2, StallTime: 5 * sim.Millisecond}); r == "" {
		t.Error("genuine stall surge over zero baseline not flagged")
	}

	// Zero on-demand baseline: minOnDemand swap-ins are noise.
	zeroOD := driftBaseline{accesses: 100, onDemand: 0, stall: sim.Millisecond}
	if r := staleReason(zeroOD, IterStats{Accesses: 100, OnDemandInCount: minOnDemand, StallTime: sim.Millisecond}); r != "" {
		t.Errorf("%d on-demand ins against zero baseline flagged: %q", minOnDemand, r)
	}
	// A genuine surge still fires: beyond onDemandFactor * minOnDemand.
	if r := staleReason(zeroOD, IterStats{Accesses: 100, OnDemandInCount: 9, StallTime: sim.Millisecond}); r == "" {
		t.Error("genuine on-demand surge over zero baseline not flagged")
	}
}

func TestCheckStalenessPatienceAndBound(t *testing.T) {
	rp := &stubReplanner{}
	d := &DynamicSession{
		rp:        rp,
		baselines: make(map[string]driftBaseline),
		active:    &dynSession{key: "b8"},
	}
	base := IterStats{Accesses: 100}
	drifted := IterStats{Accesses: 150}
	for i := 1; i <= maxReplans; i++ {
		rp.planned = true
		d.checkStaleness("b8", base) // establishes the baseline
		for range patience - 1 {
			d.checkStaleness("b8", drifted)
		}
		if len(rp.invalidated) != i-1 {
			t.Fatalf("round %d: invalidated before patience reached", i)
		}
		d.checkStaleness("b8", drifted)
		if len(rp.invalidated) != i {
			t.Fatalf("round %d: invalidations = %d, want %d after %d stale iterations",
				i, len(rp.invalidated), i, patience)
		}
		if _, ok := d.baselines["b8"]; ok {
			t.Fatalf("round %d: baseline not cleared on invalidation", i)
		}
	}
	// maxReplans caps further invalidations.
	rp.planned = true
	d.checkStaleness("b8", base)
	for range 2 * patience {
		d.checkStaleness("b8", drifted)
	}
	if len(rp.invalidated) != maxReplans {
		t.Errorf("invalidations = %d, want %d (maxReplans bound)", len(rp.invalidated), maxReplans)
	}
	if d.stats.Invalidations != maxReplans {
		t.Errorf("stats.Invalidations = %d, want %d", d.stats.Invalidations, maxReplans)
	}
}

// TestDynamicNeutralTracing pins that an untraced dynamic run and a
// traced one produce identical IterStats, and that the traced run's
// decision log records the signature switches.
func TestDynamicNeutralTracing(t *testing.T) {
	alternate := sched(func(iter int) (int64, int64) {
		if iter/2%2 == 0 {
			return 8, 0
		}
		return 4, 0
	})
	run := func(col *obs.Collector) []IterStats {
		cfg := dynConfig(t, 1*hw.GiB)
		if col != nil {
			cfg.Base.Tracer = col
		}
		cfg.Schedule = alternate
		d, err := NewDynamicSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := d.Run(6)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	col := obs.NewCollector()
	plain := run(nil)
	traced := run(col)
	if !reflect.DeepEqual(plain, traced) {
		t.Error("tracing changed dynamic execution")
	}
	switches := 0
	for _, dec := range col.Decisions() {
		if dec.Action == "shape-switch" {
			switches++
		}
	}
	if switches != 2 {
		t.Errorf("shape-switch decisions = %d, want 2", switches)
	}
}
