package exec

import (
	"fmt"

	"capuchin/internal/obs"
	"capuchin/internal/sim"
)

// IterStats summarizes one executed iteration.
type IterStats struct {
	Iter int
	// Duration is the iteration makespan on the compute stream, including
	// the end-of-iteration transfer barrier.
	Duration sim.Time
	// StallTime is compute time lost waiting for transfers, passive
	// evictions and OOM synchronization.
	StallTime sim.Time
	// Nodes and Accesses count executed operations and reported accesses.
	Nodes    int
	Accesses int

	// Swap traffic.
	SwapOutCount    int
	SwapOutBytes    int64
	PrefetchCount   int
	PrefetchBytes   int64
	OnDemandInCount int
	OnDemandInBytes int64
	PassiveEvicts   int
	PassiveBytes    int64

	// Recomputation. RecomputeBytes totals the bytes regenerated by
	// lineage replay (the recompute-traffic column of the policy arena).
	RecomputeCount int
	RecomputeTime  sim.Time
	RecomputeBytes int64

	// Fault injection and recovery. All fields are zero in a fault-free
	// run; nonzero values record how the executor degraded gracefully.
	//
	// TransferFaults counts injected DMA aborts observed on either PCIe
	// direction; TransferRetries counts the re-issued attempts (a fault on
	// the final attempt is not retried).
	TransferFaults  int
	TransferRetries int
	// KernelSpikes counts kernels slowed by an injected latency spike and
	// SpikeTime the extra compute time they cost.
	KernelSpikes int
	SpikeTime    sim.Time
	// AllocFaults counts spurious device-allocation failures absorbed by
	// the OOM recovery loop; HostFaults counts spurious pinned-host
	// reservation failures.
	AllocFaults int
	HostFaults  int
	// SwapFallbacks counts tensors whose swap path (prefetch, on-demand
	// swap-in or eviction-to-host) was abandoned for recomputation.
	SwapFallbacks int
	// OOMRecoveries counts allocations that initially failed but
	// succeeded after eviction, backoff or retry; RecoveryEvicts counts
	// the passive evictions those recoveries triggered.
	OOMRecoveries  int
	RecoveryEvicts int

	// Memory.
	PeakBytes int64
	HostPeak  int64

	// Fingerprints for the correctness oracle.
	LossFingerprint  uint64
	ParamFingerprint uint64
}

// Fingerprints are one iteration's correctness-oracle values.
type Fingerprints struct{ Loss, Param uint64 }

// Fingerprints returns the iteration's correctness-oracle values, the
// ones Reference computes.
func (st IterStats) Fingerprints() Fingerprints {
	return Fingerprints{Loss: st.LossFingerprint, Param: st.ParamFingerprint}
}

// Throughput reports training speed in samples per second for the given
// batch size.
func (st IterStats) Throughput(batch int64) float64 {
	if st.Duration <= 0 {
		return 0
	}
	return float64(batch) / st.Duration.Seconds()
}

// Faulted reports whether the iteration observed any injected fault.
func (st IterStats) Faulted() bool {
	return st.TransferFaults > 0 || st.KernelSpikes > 0 || st.AllocFaults > 0 || st.HostFaults > 0
}

// FaultSummary formats the fault/recovery counters, e.g. for resilience
// tables; it returns "-" for a fault-free iteration.
func (st IterStats) FaultSummary() string {
	if !st.Faulted() && st.SwapFallbacks == 0 && st.OOMRecoveries == 0 {
		return "-"
	}
	return fmt.Sprintf("xfer %d(+%d retry), kernel %d, alloc %d, host %d, fallback %d, recovered %d/%d evicts",
		st.TransferFaults, st.TransferRetries, st.KernelSpikes, st.AllocFaults,
		st.HostFaults, st.SwapFallbacks, st.OOMRecoveries, st.RecoveryEvicts)
}

// String implements fmt.Stringer. Byte totals cover every swap direction
// (swap-out, prefetch, on-demand, passive) and use the shared adaptive
// formatter, so a 512 KiB prefetch no longer rounds down to "0MB".
func (st IterStats) String() string {
	s := fmt.Sprintf("iter %d: %v (stall %v), swapout %d/%s, prefetch %d/%s, ondemand %d/%s, passive %d/%s, recompute %d/%v, peak %s",
		st.Iter, st.Duration, st.StallTime,
		st.SwapOutCount, obs.FmtBytes(st.SwapOutBytes),
		st.PrefetchCount, obs.FmtBytes(st.PrefetchBytes),
		st.OnDemandInCount, obs.FmtBytes(st.OnDemandInBytes),
		st.PassiveEvicts, obs.FmtBytes(st.PassiveBytes),
		st.RecomputeCount, st.RecomputeTime, obs.FmtBytes(st.PeakBytes))
	if f := st.FaultSummary(); f != "-" {
		s += ", faults[" + f + "]"
	}
	return s
}
