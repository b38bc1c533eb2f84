package exec

import (
	"errors"
	"fmt"
	"testing"

	"capuchin/internal/fault"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/memory"
)

// runFaulted executes n iterations of the test CNN under a fault plan and
// returns the stats and terminal error.
func runFaulted(t *testing.T, mem int64, plan fault.Plan, n int) ([]IterStats, error) {
	t.Helper()
	g := testCNN(t, graph.GraphModeOptions())
	s, err := NewSession(g, Config{Device: device(mem), Policy: lruPolicy{}, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	// Every faulted run doubles as a residency-invariant check: whatever
	// the injected failures did to the swap/recompute paths, the eviction
	// order must still mirror the allocator at each iteration boundary.
	var stats []IterStats
	for i := 0; i < n; i++ {
		st, err := s.RunIteration()
		stats = append(stats, st)
		if ierr := s.CheckResidencyInvariant(); ierr != nil {
			t.Fatalf("iter %d: %v", i, ierr)
		}
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

func TestSeedOnlyPlanChangesNothing(t *testing.T) {
	// A plan with a seed but zero rates is disabled: every stat must be
	// identical to a run with no plan at all.
	base, err := runFaulted(t, 128*hw.MiB, fault.Plan{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := runFaulted(t, 128*hw.MiB, fault.Plan{Seed: 99}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if base[i] != seeded[i] {
			t.Errorf("iter %d: seed-only plan changed stats:\n base %+v\n with %+v", i, base[i], seeded[i])
		}
	}
}

func TestFaultDeterminism(t *testing.T) {
	plan := fault.DefaultPlan(7)
	plan.TransferFailRate = 0.5
	a, errA := runFaulted(t, 128*hw.MiB, plan, 3)
	b, errB := runFaulted(t, 128*hw.MiB, plan, 3)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("same seed diverged: %v vs %v", errA, errB)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed ran %d vs %d iterations", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("iter %d differs under identical seeds:\n %+v\n %+v", i, a[i], b[i])
		}
	}

	other := plan
	other.Seed = 8
	c, _ := runFaulted(t, 128*hw.MiB, other, 3)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical fault schedules")
	}
}

func TestTransferFaultFallsBackToRecompute(t *testing.T) {
	// Every DMA aborts: passive eviction can never reach host memory, so
	// the executor must degrade victims to recomputation and still finish
	// with oracle-correct fingerprints.
	plan := fault.Plan{Seed: 1, TransferFailRate: 1, MaxTransferRetries: 2}
	sts, err := runFaulted(t, 128*hw.MiB, plan, 2)
	if err != nil {
		t.Fatalf("run under total transfer failure did not recover: %v", err)
	}
	var faults, retries, fallbacks, recomputes int
	matchesReference(t, "transfer faults", testCNN(t, graph.GraphModeOptions()), sts)
	for _, st := range sts {
		faults += st.TransferFaults
		retries += st.TransferRetries
		fallbacks += st.SwapFallbacks
		recomputes += st.RecomputeCount
	}
	if faults == 0 {
		t.Error("expected injected transfer faults at rate 1")
	}
	if retries == 0 {
		t.Error("expected transfer retries before giving up")
	}
	if fallbacks == 0 {
		t.Error("expected swap→recompute fallbacks when the link is dead")
	}
	if recomputes == 0 {
		t.Error("fallback tensors were never recomputed")
	}
}

func TestHostFaultFallsBackToRecompute(t *testing.T) {
	plan := fault.Plan{Seed: 3, HostFailRate: 1}
	sts, err := runFaulted(t, 128*hw.MiB, plan, 2)
	if err != nil {
		t.Fatalf("run under total host-reservation failure did not recover: %v", err)
	}
	var hostFaults, fallbacks int
	matchesReference(t, "host faults", testCNN(t, graph.GraphModeOptions()), sts)
	for _, st := range sts {
		hostFaults += st.HostFaults
		fallbacks += st.SwapFallbacks
	}
	if hostFaults == 0 {
		t.Error("expected injected host faults at rate 1")
	}
	if fallbacks == 0 {
		t.Error("expected swap→recompute fallbacks when the host arena is unusable")
	}
}

func TestAllocFaultRecovery(t *testing.T) {
	// Spurious allocation failures at a high rate: the OOM recovery loop
	// must absorb them via backoff+retry and converge to the oracle.
	plan := fault.Plan{Seed: 5, AllocFailRate: 0.7}
	sts, err := runFaulted(t, 128*hw.MiB, plan, 2)
	if err != nil {
		t.Fatalf("run under spurious allocation failures did not recover: %v", err)
	}
	var allocFaults, recoveries int
	matchesReference(t, "alloc faults", testCNN(t, graph.GraphModeOptions()), sts)
	for _, st := range sts {
		allocFaults += st.AllocFaults
		recoveries += st.OOMRecoveries
	}
	if allocFaults == 0 {
		t.Error("expected injected allocation faults at rate 0.7")
	}
	if recoveries == 0 {
		t.Error("expected OOM recoveries counting the absorbed failures")
	}
}

func TestKernelSpikesSlowIteration(t *testing.T) {
	base, err := runFaulted(t, 128*hw.MiB, fault.Plan{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.Plan{Seed: 11, KernelSpikeRate: 1, KernelSpikeFactor: 3}
	spiked, err := runFaulted(t, 128*hw.MiB, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := spiked[0]
	if st.KernelSpikes == 0 || st.SpikeTime <= 0 {
		t.Fatalf("expected kernel spikes at rate 1, got %d/%v", st.KernelSpikes, st.SpikeTime)
	}
	if st.Duration <= base[0].Duration {
		t.Errorf("spiked duration %v not slower than baseline %v", st.Duration, base[0].Duration)
	}
	if st.LossFingerprint != base[0].LossFingerprint {
		t.Error("kernel spikes must not change computed values")
	}
	if st.FaultSummary() == "-" {
		t.Error("FaultSummary should report the spikes")
	}
}

func TestOnDemandSwapInAbandonment(t *testing.T) {
	// A partial transfer failure rate lets some evictions reach host
	// memory, after which the failed on-demand swap-in of an Out tensor
	// must degrade to lineage replay. Scanning a few seeds keeps the test
	// robust to hash placement while each individual run stays
	// deterministic.
	sawOnDemandFallback := false
	for seed := uint64(1); seed <= 10; seed++ {
		plan := fault.Plan{Seed: seed, TransferFailRate: 0.6, MaxTransferRetries: 0}
		sts, err := runFaulted(t, 128*hw.MiB, plan, 2)
		if err != nil {
			if !errors.Is(err, ErrTransferFailed) && !errors.Is(err, ErrIterationOOM) {
				t.Fatalf("seed %d: untyped failure: %v", seed, err)
			}
			continue
		}
		matchesReference(t, fmt.Sprintf("seed %d", seed), testCNN(t, graph.GraphModeOptions()), sts)
		for _, st := range sts {
			if st.SwapFallbacks > 0 && st.RecomputeCount > 0 {
				sawOnDemandFallback = true
			}
		}
	}
	if !sawOnDemandFallback {
		t.Error("no seed in 1..10 exercised the swap→recompute fallback; widen the scan")
	}
}

func TestOOMErrorChain(t *testing.T) {
	// An unresolvable OOM must expose the full cause chain: the iteration
	// sentinel, the memory sentinel and the structured OOMError.
	g := testCNN(t, graph.GraphModeOptions())
	s, err := NewSession(g, Config{Device: device(24 * hw.MiB)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.RunIteration()
	if !errors.Is(err, ErrIterationOOM) {
		t.Fatalf("err = %v, want ErrIterationOOM", err)
	}
	if !errors.Is(err, memory.ErrOOM) {
		t.Fatalf("err = %v, should unwrap to memory.ErrOOM", err)
	}
	var oe *memory.OOMError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, should carry a *memory.OOMError", err)
	}
	if oe.Requested <= 0 {
		t.Errorf("OOMError.Requested = %d, want > 0", oe.Requested)
	}
}

func TestTransferErrorChain(t *testing.T) {
	te := &TransferError{Dir: fault.H2D, TensorID: "t", Bytes: 64, Attempts: 3}
	if !errors.Is(te, ErrTransferFailed) {
		t.Error("TransferError should match ErrTransferFailed")
	}
	if !errors.Is(te, fault.ErrInjected) {
		t.Error("TransferError should match fault.ErrInjected")
	}
	ie := invariant("release", "t1", errors.New("boom"))
	if !errors.Is(ie, ErrInvariant) {
		t.Error("InvariantError should match ErrInvariant")
	}
}
