package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// TestWorkspaceFallbackUnderPressure verifies the cuDNN-style algorithm
// degradation: with ample memory a 3x3 stride-1 convolution runs winograd
// (fast, large workspace); under pressure it falls back to implicit GEMM
// and the iteration slows down — the effect behind VGG16's throughput dip
// at its maximum batch (§6.3.2).
func TestWorkspaceFallbackUnderPressure(t *testing.T) {
	build := func() *graph.Graph {
		b := graph.NewBuilder("wstest")
		x := b.Input("data", tensor.Shape{16, 64, 64, 64}, tensor.Float32)
		labels := b.Input("labels", tensor.Shape{16, 10}, tensor.Float32)
		w := b.Variable("w", tensor.Shape{64, 64, 3, 3})
		h := b.Apply1("conv", ops.Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, x, w)
		h = b.Apply1("gap", ops.Pool{Kind: ops.AvgPoolKind}, h)
		flat := b.Apply1("flatten", ops.Reshape{To: tensor.Shape{16, 64}}, h)
		wf := b.Variable("wf", tensor.Shape{64, 10})
		logits := b.Apply1("fc", ops.MatMul{}, flat, wf)
		loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, logits, labels)
		g, err := b.Build(loss, graph.BuildOptions{SkipBackward: true})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	run := func(mem int64) IterStats {
		s, err := NewSession(build(), Config{Device: device(mem)})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// Activations: x and the conv output are ~16.7 MiB each; the winograd
	// workspace needs another ~33 MiB. At 512 MiB everything fits; at
	// 56 MiB the workspace does not, forcing implicit GEMM.
	fast := run(512 * hw.MiB)
	slow := run(56 * hw.MiB)
	if slow.Duration <= fast.Duration {
		t.Errorf("no algorithm fallback: %v at 56 MiB vs %v at 512 MiB", slow.Duration, fast.Duration)
	}
}

// TestForwardOnlyGraph checks SkipBackward inference graphs execute.
func TestForwardOnlyGraph(t *testing.T) {
	b := graph.NewBuilder("fwd")
	x := b.Input("data", tensor.Shape{4, 8}, tensor.Float32)
	w := b.Variable("w", tensor.Shape{8, 8})
	h := b.Apply1("fc", ops.MatMul{}, x, w)
	g, err := b.Build(h, graph.BuildOptions{SkipBackward: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(g, Config{Device: device(hw.GiB)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes == 0 {
		t.Error("nothing executed")
	}
}

// TestResidentsDiagnostic checks the Residents snapshot.
func TestResidentsDiagnostic(t *testing.T) {
	g := testCNN(t, graph.GraphModeOptions())
	s, err := NewSession(g, Config{Device: device(hw.GiB)})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Residents()
	// Before any iteration only parameters are resident.
	for id := range res {
		tt := g.Tensor(id)
		if tt == nil || !tt.Persistent {
			t.Errorf("non-parameter %s resident before execution", id)
		}
	}
	if len(res) == 0 {
		t.Error("no parameters resident")
	}
}

// randomChain builds a random chain network from a seeded RNG, exercising
// diverse op sequences through the executor.
func randomChain(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder("rand")
	ch := int64(8 * (1 + rng.Intn(3)))
	x := b.Input("data", tensor.Shape{4, ch, 32, 32}, tensor.Float32)
	labels := b.Input("labels", tensor.Shape{4, 10}, tensor.Float32)
	h := x
	depth := 3 + rng.Intn(5)
	for i := 0; i < depth; i++ {
		switch rng.Intn(5) {
		case 0:
			out := int64(8 * (1 + rng.Intn(4)))
			w := b.Variable(randName(rng, "w"), tensor.Shape{out, h.Shape[1], 3, 3})
			h = b.Apply1(randName(rng, "conv"), ops.Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, h, w)
		case 1:
			h = b.Apply1(randName(rng, "relu"), ops.ReLU, h)
		case 2:
			c := h.Shape[1]
			sc := b.Variable(randName(rng, "scale"), tensor.Shape{c})
			of := b.Variable(randName(rng, "offset"), tensor.Shape{c})
			h = b.Apply1(randName(rng, "bn"), ops.BatchNorm{}, h, sc, of)
		case 3:
			h2 := b.Apply1(randName(rng, "gelu"), ops.GELU, h)
			h = b.Apply1(randName(rng, "res"), ops.Add, h, h2)
		case 4:
			h = b.Apply1(randName(rng, "drop"), ops.Dropout, h)
		}
	}
	h = b.Apply1("gap", ops.Pool{Kind: ops.AvgPoolKind}, h)
	flat := b.Apply1("flatten", ops.Reshape{To: tensor.Shape{4, h.Shape.Elems() / 4}}, h)
	w := b.Variable("fc_w", tensor.Shape{flat.Shape[1], 10})
	logits := b.Apply1("fc", ops.MatMul{}, flat, w)
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, logits, labels)
	g, err := b.Build(loss, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randName(rng *rand.Rand, base string) string {
	const letters = "abcdefghijklmnop"
	return base + "_" + string(letters[rng.Intn(len(letters))]) + string(letters[rng.Intn(len(letters))])
}

// Property: for random networks, execution under severe memory pressure
// with LRU passive eviction produces the same fingerprints as uncapped
// execution, never exceeds capacity, and leaks nothing.
func TestRandomNetworksOracleProperty(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		// Capacity: 40% of an uncapped iteration's peak, floored to fit
		// the largest working set of these small nets.
		uncapped, err := NewSession(randomChain(t, seed), Config{Device: device(4 * hw.GiB)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := uncapped.RunIteration(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cap := uncapped.Pool().Peak() * 2 / 5
		if cap < 24*hw.MiB {
			cap = 24 * hw.MiB
		}
		s, err := NewSession(randomChain(t, seed), Config{Device: device(cap), Policy: lruPolicy{}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Iterate manually so the residency invariant — the eviction order
		// mirrors the allocator exactly — is pinned at every iteration
		// boundary of the pressured run.
		var got []IterStats
		var runErr error
		for i := 0; i < 2; i++ {
			st, err := s.RunIteration()
			got = append(got, st)
			if ierr := s.CheckResidencyInvariant(); ierr != nil {
				t.Fatalf("seed %d iter %d: %v", seed, i, ierr)
			}
			if err != nil {
				runErr = err
				break
			}
		}
		if runErr != nil {
			t.Logf("seed %d: capped run failed (%v) — acceptable if the working set exceeds %d", seed, runErr, cap)
			continue
		}
		matchesReference(t, fmt.Sprintf("seed %d", seed), randomChain(t, seed), got)
		if s.Pool().Peak() > cap {
			t.Errorf("seed %d: peak %d exceeded capacity %d", seed, s.Pool().Peak(), cap)
		}
		if s.Host().Used() != 0 {
			t.Errorf("seed %d: host memory leaked", seed)
		}
	}
}

// TestEagerRetentionReleasedAtEnd verifies eager-tape tensors are freed at
// the iteration barrier and the next iteration starts clean.
func TestEagerRetentionReleasedAtEnd(t *testing.T) {
	g := testCNN(t, graph.EagerModeOptions())
	s, err := NewSession(g, Config{Device: device(2 * hw.GiB), Mode: EagerMode})
	if err != nil {
		t.Fatal(err)
	}
	base := s.Pool().Used()
	for i := 0; i < 3; i++ {
		if _, err := s.RunIteration(); err != nil {
			t.Fatal(err)
		}
		if got := s.Pool().Used(); got != base {
			t.Fatalf("iter %d: %d bytes still resident after barrier, want %d", i, got, base)
		}
	}
}

// TestStallAccountingNonNegative checks stall bookkeeping sanity under a
// swap-heavy policy.
func TestStallAccountingNonNegative(t *testing.T) {
	g := testCNN(t, graph.GraphModeOptions())
	s, err := NewSession(g, Config{Device: device(128 * hw.MiB), Policy: swapAllPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	sts, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		if st.StallTime < 0 {
			t.Errorf("negative stall time %v", st.StallTime)
		}
		if st.StallTime > st.Duration {
			t.Errorf("stall %v exceeds duration %v", st.StallTime, st.Duration)
		}
	}
}

// TestAdamOptimizerEndToEnd runs a graph built with the Adam rule: its
// per-parameter state tensors are pre-allocated as persistent memory and
// updates execute normally.
func TestAdamOptimizerEndToEnd(t *testing.T) {
	build := func(rule ops.Optimizer) *graph.Graph {
		b := graph.NewBuilder("adam")
		x := b.Input("data", tensor.Shape{8, 64}, tensor.Float32)
		labels := b.Input("labels", tensor.Shape{8, 10}, tensor.Float32)
		w := b.Variable("w", tensor.Shape{64, 10})
		h := b.Apply1("fc", ops.MatMul{}, x, w)
		loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, h, labels)
		g, err := b.Build(loss, graph.BuildOptions{Optimizer: ops.ApplyGradient{Rule: rule}})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	sgd, err := NewSession(build(ops.SGD), Config{Device: device(hw.GiB)})
	if err != nil {
		t.Fatal(err)
	}
	adam, err := NewSession(build(ops.Adam), Config{Device: device(hw.GiB)})
	if err != nil {
		t.Fatal(err)
	}
	// Adam pre-allocates 3x the parameter memory (weights + two moments).
	if adam.Pool().Used() <= sgd.Pool().Used() {
		t.Errorf("Adam resident %d not above SGD resident %d", adam.Pool().Used(), sgd.Pool().Used())
	}
	stSGD, err := sgd.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	stAdam, err := adam.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if stAdam.Duration <= stSGD.Duration {
		t.Error("Adam update should cost more time than SGD")
	}
}
