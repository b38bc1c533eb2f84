// Package hw models the hardware that the Capuchin paper evaluates on: a
// GPU described by an analytic roofline (peak FLOP/s, memory bandwidth,
// kernel-launch overhead, an occupancy ramp) and a PCIe link with
// per-direction exclusive, latency-plus-bandwidth transfers.
//
// The model is deliberately analytic: Capuchin's decisions depend only on
// relative operation durations, tensor sizes, and transfer times, all of
// which a roofline reproduces. The default device is the paper's NVIDIA
// Tesla P100 behind PCIe 3.0 x16.
package hw

import (
	"fmt"
	"math"
	"strings"

	"capuchin/internal/sim"
)

// Link models one direction of a host-device interconnect. Pinned-memory
// transfers occupy a direction exclusively, so each direction is served by
// its own sim.Stream in the executor; Link only supplies durations.
type Link struct {
	// BytesPerSec is the sustained bandwidth of one direction.
	BytesPerSec float64
	// Latency is the fixed per-transfer setup cost (driver + DMA start).
	Latency sim.Time
}

// TransferTime reports the duration of moving the given number of bytes in
// one direction.
func (l Link) TransferTime(bytes int64) sim.Time {
	if bytes <= 0 {
		return l.Latency
	}
	return l.Latency + sim.FromSeconds(float64(bytes)/l.BytesPerSec)
}

// DegradedTransferTime reports the transfer duration under a bandwidth
// slowdown factor (fault-injected PCIe contention windows). The factor
// scales only the bandwidth term — DMA setup latency is unaffected by
// contention — and a factor of 1 or less reproduces TransferTime exactly.
func (l Link) DegradedTransferTime(bytes int64, slowdown float64) sim.Time {
	if slowdown <= 1 || bytes <= 0 {
		return l.TransferTime(bytes)
	}
	return l.Latency + sim.FromSeconds(float64(bytes)*slowdown/l.BytesPerSec)
}

// DeviceSpec describes a GPU and its host link for the cost model.
type DeviceSpec struct {
	Name string

	// PeakFLOPS is the peak single-precision throughput in FLOP/s.
	PeakFLOPS float64
	// MemBandwidth is the device memory bandwidth in bytes/s; it bounds
	// memory-bound (elementwise, pooling, normalization) operations.
	MemBandwidth float64
	// MemoryBytes is the on-board memory capacity managed by the allocator.
	MemoryBytes int64
	// KernelLaunch is the fixed overhead of launching one kernel.
	KernelLaunch sim.Time

	// D2H and H2D describe the two PCIe directions. The paper measured the
	// device-to-host direction slightly faster than host-to-device (§6.2);
	// keeping them distinct lets the Free-Time computation see that.
	D2H Link
	H2D Link

	// EagerDispatch is the per-operation CPU dispatch overhead added in
	// eager (imperative) mode, where Python-style interpretation serializes
	// ahead of each kernel (§2.2).
	EagerDispatch sim.Time
	// TrackAccess is the per-tensor-access bookkeeping cost Capuchin's
	// tracker adds at runtime (§6.3.2 measures it at well under 1%).
	TrackAccess sim.Time
}

// ComputeTime reports the duration of a compute-bound kernel performing the
// given FLOPs at an op-specific efficiency. maxEff is the fraction of peak
// the kernel reaches when fully saturated; halfSatFLOPs is the work size at
// which the occupancy ramp reaches half of maxEff. The ramp models the GPU
// utilization growth with batch size that the paper observes on BERT and
// DenseNet (§6.3.2, §6.4.2).
func (d DeviceSpec) ComputeTime(flops, maxEff, halfSatFLOPs float64) sim.Time {
	if flops <= 0 {
		return d.KernelLaunch
	}
	eff := maxEff
	if halfSatFLOPs > 0 {
		eff = maxEff * flops / (flops + halfSatFLOPs)
	}
	return d.KernelLaunch + sim.FromSeconds(flops/(d.PeakFLOPS*eff))
}

// DeviceError reports a DeviceSpec field the cost model cannot run on:
// a rate (FLOP/s or bytes/s) that is not positive and finite, or a
// negative overhead. A zero rate makes an operation's duration infinite,
// which converts to a negative time and stops the simulated stream it
// runs on.
type DeviceError struct {
	// Device is the spec's Name, and Field the offending field's path
	// ("PeakFLOPS", "H2D.BytesPerSec", "KernelLaunch", ...).
	Device, Field string
	// Value is the field's value as fmt prints it, and Want what the
	// field must be.
	Value, Want string
}

func (e *DeviceError) Error() string {
	return fmt.Sprintf("hw: device %q has %s %s; it must be %s", e.Device, e.Field, e.Value, e.Want)
}

// Validate returns a *DeviceError for the first field of d the cost
// model cannot use, or nil. Bounding MemoryBytes is the caller's.
func (d DeviceSpec) Validate() error {
	rates := [...]struct {
		field string
		v     float64
	}{
		{"PeakFLOPS", d.PeakFLOPS}, {"MemBandwidth", d.MemBandwidth},
		{"D2H.BytesPerSec", d.D2H.BytesPerSec}, {"H2D.BytesPerSec", d.H2D.BytesPerSec},
	}
	for _, r := range rates {
		if !(r.v > 0 && r.v <= math.MaxFloat64) {
			return &DeviceError{Device: d.Name, Field: r.field, Value: fmt.Sprint(r.v), Want: "positive and finite"}
		}
	}
	overheads := [...]struct {
		field string
		v     sim.Time
	}{
		{"KernelLaunch", d.KernelLaunch}, {"D2H.Latency", d.D2H.Latency}, {"H2D.Latency", d.H2D.Latency},
		{"EagerDispatch", d.EagerDispatch}, {"TrackAccess", d.TrackAccess},
	}
	for _, o := range overheads {
		if o.v < 0 {
			return &DeviceError{Device: d.Name, Field: o.field, Value: o.v.String(), Want: "zero or positive"}
		}
	}
	return nil
}

// MemoryTime reports the duration of a memory-bound kernel that moves the
// given number of bytes through device memory.
func (d DeviceSpec) MemoryTime(bytes int64) sim.Time {
	if bytes <= 0 {
		return d.KernelLaunch
	}
	return d.KernelLaunch + sim.FromSeconds(float64(bytes)/d.MemBandwidth)
}

const (
	// KiB, MiB and GiB are binary byte units used throughout the simulator.
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
)

// P100 returns the paper's evaluation platform: a Tesla P100 (16 GB HBM2)
// behind PCIe 3.0 x16 sustaining about 12 GB/s (§4.3), with device-to-host
// marginally faster than host-to-device as measured in §6.2.
func P100() DeviceSpec {
	return DeviceSpec{
		Name:          "Tesla P100-PCIE-16GB",
		PeakFLOPS:     9.3e12,
		MemBandwidth:  732e9,
		MemoryBytes:   16 * GiB,
		KernelLaunch:  5 * sim.Microsecond,
		D2H:           Link{BytesPerSec: 12.7e9, Latency: 15 * sim.Microsecond},
		H2D:           Link{BytesPerSec: 11.7e9, Latency: 15 * sim.Microsecond},
		EagerDispatch: 60 * sim.Microsecond,
		TrackAccess:   250 * sim.Nanosecond,
	}
}

// V100 returns a Tesla V100 32 GB, the largest single-GPU memory the paper
// cites (§1), for capacity-sensitivity experiments.
func V100() DeviceSpec {
	return DeviceSpec{
		Name:          "Tesla V100-PCIE-32GB",
		PeakFLOPS:     15.7e12,
		MemBandwidth:  900e9,
		MemoryBytes:   32 * GiB,
		KernelLaunch:  5 * sim.Microsecond,
		D2H:           Link{BytesPerSec: 12.7e9, Latency: 15 * sim.Microsecond},
		H2D:           Link{BytesPerSec: 11.7e9, Latency: 15 * sim.Microsecond},
		EagerDispatch: 60 * sim.Microsecond,
		TrackAccess:   250 * sim.Nanosecond,
	}
}

// T4 returns a modest inference-class card, useful to show policy behaviour
// when compute is slow relative to the link.
func T4() DeviceSpec {
	return DeviceSpec{
		Name:          "Tesla T4-16GB",
		PeakFLOPS:     8.1e12,
		MemBandwidth:  300e9,
		MemoryBytes:   16 * GiB,
		KernelLaunch:  5 * sim.Microsecond,
		D2H:           Link{BytesPerSec: 6.3e9, Latency: 15 * sim.Microsecond},
		H2D:           Link{BytesPerSec: 6.0e9, Latency: 15 * sim.Microsecond},
		EagerDispatch: 60 * sim.Microsecond,
		TrackAccess:   250 * sim.Nanosecond,
	}
}

// catalog maps the CLI device names to their specs.
var catalog = map[string]func() DeviceSpec{"p100": P100, "v100": V100, "t4": T4}

// ByName returns the catalog device a -device flag names: p100, v100 or
// t4, in any case.
func ByName(name string) (DeviceSpec, error) {
	if spec, ok := catalog[strings.ToLower(name)]; ok {
		return spec(), nil
	}
	return DeviceSpec{}, fmt.Errorf("hw: unknown device %q (want p100, v100 or t4)", name)
}

// MaxMemory bounds every configured memory size, device or host. A GiB
// count far beyond it would overflow int64 bytes.
const MaxMemory = 4096 * GiB

// GiBToBytes converts a memory size in GiB, fractions allowed, to bytes.
// Zero means unset and converts to 0; any other size must come to at
// least one byte and at most MaxMemory, which rejects NaN and ±Inf.
func GiBToBytes(gib float64) (int64, error) {
	if gib == 0 {
		return 0, nil
	}
	bytes := gib * float64(GiB)
	if !(bytes >= 1 && bytes <= float64(MaxMemory)) {
		return 0, fmt.Errorf("hw: memory must be 0 (unset) or between 1 byte and %d GiB, got %g GiB", MaxMemory/GiB, gib)
	}
	return int64(bytes), nil
}

// WithMemory returns a copy of the spec with the given memory capacity, for
// oversubscription sweeps.
func (d DeviceSpec) WithMemory(bytes int64) DeviceSpec {
	d.MemoryBytes = bytes
	return d
}

// Interconnect models the shared fabric of a data-parallel cluster: each
// replica reaches its peers through the same host link that carries its
// swap traffic, so ring all-reduce shards and PCIe swaps contend for
// bandwidth on a per-replica basis (the contention DELTA and the
// GPGPU-Sim ML study identify as dominant in multi-GPU memory
// management).
type Interconnect struct {
	Name string
	// LinkBytesPerSec is the per-replica link bandwidth available to
	// collective traffic, and LinkLatency the per-step synchronization
	// cost of the ring.
	LinkBytesPerSec float64
	LinkLatency     sim.Time
	// ContentionSlowdown is the bandwidth degradation factor applied to a
	// swap transfer that overlaps an all-reduce window on the same
	// replica's link (2 = fair time-sharing between the two flows).
	ContentionSlowdown float64
	// BucketBytes is the gradient coalescing granularity: gradients are
	// folded into fusion buckets (as in NCCL/Horovod) and each bucket is
	// all-reduced as one collective once full.
	BucketBytes int64
}

// PCIeRing returns the default interconnect for the paper's testbed
// style: replicas behind PCIe 3.0 x16 sharing a host bridge, ring
// all-reduce over the same links used for swapping. Bandwidth matches the
// P100 host link; the 25 MiB bucket is the common fusion-buffer default.
func PCIeRing() Interconnect {
	return Interconnect{
		Name:               "pcie-ring",
		LinkBytesPerSec:    11.7e9,
		LinkLatency:        15 * sim.Microsecond,
		ContentionSlowdown: 2,
		BucketBytes:        25 * MiB,
	}
}

// AllReduceTime reports the duration of a ring all-reduce of bytes across
// devices replicas: every replica sends and receives 2(N-1)/N of the
// payload over its link, in 2(N-1) latency-bound steps. A single device
// needs no communication and reports zero.
func (ic Interconnect) AllReduceTime(devices int, bytes int64) sim.Time {
	if devices <= 1 || bytes <= 0 {
		return 0
	}
	n := float64(devices)
	wire := sim.FromSeconds(2 * (n - 1) / n * float64(bytes) / ic.LinkBytesPerSec)
	return sim.Time(2*(devices-1))*ic.LinkLatency + wire
}
