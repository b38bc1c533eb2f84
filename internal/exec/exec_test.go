package exec

import (
	"errors"
	"fmt"
	"testing"

	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/ops"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// testCNN builds a small conv net whose activations are big enough to
// exercise memory pressure at modest capacities.
func testCNN(t *testing.T, opt graph.BuildOptions) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder("testcnn")
	x := b.Input("data", tensor.Shape{8, 3, 64, 64}, tensor.Float32)
	labels := b.Input("labels", tensor.Shape{8, 10}, tensor.Float32)
	h := x
	ch := int64(16)
	for i := 0; i < 4; i++ {
		w := b.Variable(fmt.Sprintf("conv%d_w", i), tensor.Shape{ch * 2, h.Shape[1], 3, 3})
		h = b.Apply1(fmt.Sprintf("conv%d", i), ops.Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, h, w)
		h = b.Apply1(fmt.Sprintf("relu%d", i), ops.ReLU, h)
		ch *= 2
	}
	h = b.Apply1("gap", ops.Pool{Kind: ops.AvgPoolKind}, h)
	flat := b.Apply1("flatten", ops.Reshape{To: tensor.Shape{8, h.Shape.Elems() / 8}}, h)
	w := b.Variable("fc_w", tensor.Shape{flat.Shape[1], 10})
	logits := b.Apply1("fc", ops.MatMul{}, flat, w)
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, logits, labels)
	g, err := b.Build(loss, opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// device returns a small test device so memory pressure is reachable.
func device(mem int64) hw.DeviceSpec {
	d := hw.P100()
	d.MemoryBytes = mem
	return d
}

// lruPolicy is Capuchin's passive mode in isolation: evict
// least-recently-accessed residents on OOM, nothing proactive.
type lruPolicy struct{ NullPolicy }

func (lruPolicy) Name() string { return "lru-passive" }

func (lruPolicy) OnOOM(need int64, env *Env) ([]*tensor.Tensor, bool) {
	return env.LRUResidents(need), true
}

func (lruPolicy) TracksAccesses() bool { return true }

func TestRunIterationBaseline(t *testing.T) {
	g := testCNN(t, graph.GraphModeOptions())
	s, err := NewSession(g, Config{Device: device(2 * hw.GiB)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if st.Duration <= 0 {
		t.Error("zero duration")
	}
	if st.Nodes == 0 || st.Accesses == 0 {
		t.Errorf("stats empty: %+v", st)
	}
	if st.LossFingerprint == 0 || st.ParamFingerprint == 0 {
		t.Error("fingerprints not captured")
	}
	if st.SwapOutCount != 0 || st.RecomputeCount != 0 || st.PassiveEvicts != 0 {
		t.Errorf("baseline run did memory management: %+v", st)
	}
	// All non-persistent memory must be released after the iteration
	// (pool usage counts rounded chunk sizes, so compare with the
	// post-setup snapshot rather than raw parameter bytes).
	s2, err := NewSession(testCNN(t, graph.GraphModeOptions()), Config{Device: device(2 * hw.GiB)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Pool().Used(), s2.Pool().Used(); got != want {
		t.Errorf("pool used after iteration = %d, want parameters only %d", got, want)
	}
	if s.Host().Used() != 0 {
		t.Error("host memory leaked")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (IterStats, IterStats) {
		g := testCNN(t, graph.GraphModeOptions())
		s, err := NewSession(g, Config{Device: device(2 * hw.GiB)})
		if err != nil {
			t.Fatal(err)
		}
		a, err := s.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1.Duration != a2.Duration || a1.LossFingerprint != a2.LossFingerprint {
		t.Error("first iterations differ across runs")
	}
	if b1.ParamFingerprint != b2.ParamFingerprint {
		t.Error("second iterations diverge")
	}
	// Parameters change between iterations (updates applied).
	if a1.ParamFingerprint == b1.ParamFingerprint {
		t.Error("parameter fingerprint did not change after an update step")
	}
	// Loss differs across iterations because weights changed.
	if a1.LossFingerprint == b1.LossFingerprint {
		t.Error("loss fingerprint identical across iterations despite weight update")
	}
}

func TestOOMWithoutPolicy(t *testing.T) {
	// Parameters do not fit in 512 KiB: session construction fails.
	g := testCNN(t, graph.GraphModeOptions())
	if _, err := NewSession(g, Config{Device: device(512 * hw.KiB)}); err == nil {
		t.Fatal("expected parameter allocation failure at 512 KiB")
	}
	// Give enough for parameters but not activations.
	s, err := NewSession(testCNN(t, graph.GraphModeOptions()), Config{Device: device(24 * hw.MiB)})
	if err != nil {
		t.Fatalf("parameters should fit in 24 MiB: %v", err)
	}
	_, err = s.RunIteration()
	if !errors.Is(err, ErrIterationOOM) {
		t.Fatalf("err = %v, want ErrIterationOOM", err)
	}
}

// matchesReference fails t unless each iteration in sts, a run of what,
// reports the loss and parameter fingerprints Reference gives for g, a
// graph no session is running.
func matchesReference(t *testing.T, what string, g *graph.Graph, sts []IterStats) {
	t.Helper()
	for i, want := range Reference(g, len(sts)) {
		if got := sts[i].Fingerprints(); got != want {
			t.Errorf("%s iter %d: {loss, param} fingerprints %x, Reference %x", what, i, got, want)
		}
	}
}

func TestPassiveModeMatchesOracle(t *testing.T) {
	g := testCNN(t, graph.GraphModeOptions())
	// Capacity chosen to force passive eviction but allow completion.
	s, err := NewSession(g, Config{Device: device(128 * hw.MiB), Policy: lruPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	sts, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].PassiveEvicts == 0 {
		t.Fatal("expected passive evictions under 128 MiB")
	}
	matchesReference(t, "passive eviction", testCNN(t, graph.GraphModeOptions()), sts)
	// Memory pressure costs time.
	uncapped, err := NewSession(testCNN(t, graph.GraphModeOptions()), Config{Device: device(4 * hw.GiB)})
	if err != nil {
		t.Fatal(err)
	}
	base, err := uncapped.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].Duration <= base.Duration {
		t.Error("passive swapping should be slower than uncapped execution")
	}
	if s.Pool().Peak() > 128*hw.MiB {
		t.Errorf("peak %d exceeded capacity", s.Pool().Peak())
	}
}

// swapAllPolicy proactively evicts every multi-use forward tensor right
// after its second-to-last forward access and never prefetches, forcing
// on-demand swap-ins at back-access.
type swapAllPolicy struct{ NullPolicy }

func (swapAllPolicy) Name() string { return "swap-all" }

func (swapAllPolicy) OnAccess(acc Access, env *Env) {
	t := acc.Tensor
	if acc.Kind != Read || t.Persistent || t.Gradient {
		return
	}
	env.SwapOutAsync(t)
}

func (swapAllPolicy) OnOOM(need int64, env *Env) ([]*tensor.Tensor, bool) {
	return env.LRUResidents(need), true
}

func TestProactiveSwapMatchesOracle(t *testing.T) {
	g := testCNN(t, graph.GraphModeOptions())
	s, err := NewSession(g, Config{Device: device(112 * hw.MiB), Policy: swapAllPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	sts, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].SwapOutCount == 0 {
		t.Fatal("no proactive swap-outs recorded")
	}
	if sts[0].OnDemandInCount == 0 {
		t.Fatal("expected on-demand swap-ins at back-accesses")
	}
	matchesReference(t, "proactive swapping", testCNN(t, graph.GraphModeOptions()), sts)
}

// recomputePolicy releases ReLU outputs after their forward use; backward
// accesses then trigger lineage replay.
type recomputePolicy struct{ NullPolicy }

func (recomputePolicy) Name() string { return "recompute-relu" }

func (recomputePolicy) OnAccess(acc Access, env *Env) {
	t := acc.Tensor
	if acc.Kind != Read || t.Persistent || t.Gradient {
		return
	}
	if t.OpName != "" && len(t.OpName) >= 4 && t.OpName[:4] == "relu" {
		env.ReleaseForRecompute(t)
	}
}

func (recomputePolicy) OnOOM(need int64, env *Env) ([]*tensor.Tensor, bool) {
	return env.LRUResidents(need), true
}

func TestRecomputeMatchesOracle(t *testing.T) {
	g := testCNN(t, graph.GraphModeOptions())
	s, err := NewSession(g, Config{Device: device(128 * hw.MiB), Policy: recomputePolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	sts, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].RecomputeCount == 0 {
		t.Fatal("no recomputations recorded")
	}
	matchesReference(t, "recomputation", testCNN(t, graph.GraphModeOptions()), sts)
}

func TestCollectiveRecomputeReducesReplays(t *testing.T) {
	// A chain of recompute-released ReLUs: with collective recomputation
	// the first replay regenerates later targets too.
	run := func(collective bool) IterStats {
		g := testCNN(t, graph.GraphModeOptions())
		s, err := NewSession(g, Config{
			Device:              device(256 * hw.MiB),
			Policy:              recomputePolicy{},
			CollectiveRecompute: collective,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	with := run(true)
	without := run(false)
	if with.RecomputeCount > without.RecomputeCount {
		t.Errorf("collective recompute used more replays (%d) than without (%d)",
			with.RecomputeCount, without.RecomputeCount)
	}
}

func TestEagerModeCosts(t *testing.T) {
	gg := testCNN(t, graph.GraphModeOptions())
	ge := testCNN(t, graph.EagerModeOptions())
	sg, err := NewSession(gg, Config{Device: device(2 * hw.GiB), Mode: GraphMode})
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewSession(ge, Config{Device: device(2 * hw.GiB), Mode: EagerMode})
	if err != nil {
		t.Fatal(err)
	}
	stg, err := sg.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	ste, err := se.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if ste.Duration <= stg.Duration {
		t.Errorf("eager (%v) should be slower than graph (%v)", ste.Duration, stg.Duration)
	}
	// Tape retention holds forward activations: higher peak memory.
	if se.Pool().Peak() <= sg.Pool().Peak() {
		t.Errorf("eager peak %d should exceed graph peak %d (tape retention)",
			se.Pool().Peak(), sg.Pool().Peak())
	}
}

func TestCoupledSwapSlower(t *testing.T) {
	run := func(coupled bool) IterStats {
		g := testCNN(t, graph.GraphModeOptions())
		s, err := NewSession(g, Config{
			Device:      device(112 * hw.MiB),
			Policy:      swapAllPolicy{},
			CoupledSwap: coupled,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	coupled := run(true)
	decoupled := run(false)
	if coupled.Duration < decoupled.Duration {
		t.Errorf("coupled swap (%v) should not beat decoupled (%v)",
			coupled.Duration, decoupled.Duration)
	}
}

func TestTrackingOverheadCharged(t *testing.T) {
	base := func(p Policy) IterStats {
		g := testCNN(t, graph.GraphModeOptions())
		s, err := NewSession(g, Config{Device: device(2 * hw.GiB), Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	off := base(NullPolicy{})
	on := base(lruPolicy{}) // tracks accesses but no pressure at 2 GiB
	if on.Duration <= off.Duration {
		t.Error("tracking overhead not charged")
	}
	overhead := float64(on.Duration-off.Duration) / float64(off.Duration)
	if overhead > 0.05 {
		t.Errorf("tracking overhead %.1f%% is implausibly high (paper: <1%%)", overhead*100)
	}
}

func TestConfigValidation(t *testing.T) {
	g := testCNN(t, graph.GraphModeOptions())
	if _, err := NewSession(g, Config{Device: hw.DeviceSpec{}}); err == nil {
		t.Error("zero device accepted")
	}
	if _, err := NewSession(g, Config{Device: device(hw.GiB), Allocator: "magic"}); err == nil {
		t.Error("unknown allocator accepted")
	}
	s, err := NewSession(g, Config{Device: device(hw.GiB), Allocator: "firstfit"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pool().Name() != "firstfit" {
		t.Error("allocator selection ignored")
	}
}

func TestSwapInAsyncPrefetchPath(t *testing.T) {
	// Drive Env.SwapOutAsync + SwapInAsync manually through a scripted
	// policy: evict conv outputs after forward, prefetch at a fixed later
	// access, and verify PrefetchCount and correctness.
	p := &scriptedPrefetch{}
	g := testCNN(t, graph.GraphModeOptions())
	s, err := NewSession(g, Config{Device: device(96 * hw.MiB), Policy: p})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if st.SwapOutCount == 0 {
		t.Fatal("scripted policy did not swap out")
	}
	if st.PrefetchCount == 0 {
		t.Fatal("scripted policy did not prefetch")
	}
	matchesReference(t, "prefetching", testCNN(t, graph.GraphModeOptions()), []IterStats{st})
	// The running in-flight byte count matches the in-flight list at every
	// access and drains at the boundary.
	if p.inflightErr != nil || p.inflightPeak == 0 {
		t.Errorf("InflightSwapInBytes: %v, peak %d", p.inflightErr, p.inflightPeak)
	}
	if s.swapInBytes != 0 {
		t.Errorf("%d in-flight swap-in bytes survived the iteration", s.swapInBytes)
	}
}

// scriptedPrefetch swaps out relu outputs at their forward read and
// prefetches each swapped tensor when the loss gradient seed appears.
// At every access it checks Env.InflightSwapInBytes against the bytes
// the in-flight list holds.
type scriptedPrefetch struct {
	NullPolicy
	swapped      []*tensor.Tensor
	inflightPeak int64
	inflightErr  error
}

func (p *scriptedPrefetch) Name() string { return "scripted-prefetch" }

func (p *scriptedPrefetch) OnAccess(acc Access, env *Env) {
	var want int64
	for _, i := range env.s.swapInList {
		want += env.s.tlist[i].Alloc.Size
	}
	if got := env.InflightSwapInBytes(); got != want && p.inflightErr == nil {
		p.inflightErr = fmt.Errorf("%d bytes at %s's access, the in-flight list holds %d", got, acc.Tensor.ID, want)
	}
	p.inflightPeak = max(p.inflightPeak, want)
	t := acc.Tensor
	if acc.Kind == Read && !t.Persistent && !t.Gradient {
		if env.SwapOutAsync(t) {
			p.swapped = append(p.swapped, t)
		}
		return
	}
	if acc.Kind == Produce && acc.NodeID() == "grad/seed" {
		for _, sw := range p.swapped {
			env.SwapInAsync(sw)
		}
		p.swapped = nil
	}
}

func (p *scriptedPrefetch) OnOOM(need int64, env *Env) ([]*tensor.Tensor, bool) {
	return env.LRUResidents(need), true
}

func (p *scriptedPrefetch) EndIteration(int, *Env) { p.swapped = nil }

func TestThroughputHelper(t *testing.T) {
	st := IterStats{Duration: sim.Second}
	if got := st.Throughput(100); got != 100 {
		t.Errorf("Throughput = %g, want 100", got)
	}
	if got := (IterStats{}).Throughput(100); got != 0 {
		t.Error("zero-duration throughput should be 0")
	}
	if (IterStats{Iter: 1, Duration: sim.Second}).String() == "" {
		t.Error("empty String()")
	}
}

func TestHostMemoryLimit(t *testing.T) {
	// A tiny host arena forces swap-outs to fail; passive eviction then
	// cannot proceed and the run must fail with OOM rather than corrupt
	// state.
	g := testCNN(t, graph.GraphModeOptions())
	s, err := NewSession(g, Config{
		Device:     device(48 * hw.MiB),
		HostMemory: 1 * hw.MiB,
		Policy:     lruPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunIteration(); !errors.Is(err, ErrIterationOOM) {
		t.Fatalf("err = %v, want ErrIterationOOM when host memory is exhausted", err)
	}
}
