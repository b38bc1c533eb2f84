package hw

import (
	"errors"
	"math"
	"testing"

	"capuchin/internal/sim"
)

func TestLinkTransferTime(t *testing.T) {
	l := Link{BytesPerSec: 12e9, Latency: 15 * sim.Microsecond}
	// 12 GB at 12 GB/s = 1 s plus latency.
	got := l.TransferTime(12e9)
	want := sim.Second + 15*sim.Microsecond
	if got != want {
		t.Errorf("TransferTime(12e9) = %v, want %v", got, want)
	}
	// Zero/negative bytes cost only latency.
	if got := l.TransferTime(0); got != l.Latency {
		t.Errorf("TransferTime(0) = %v, want latency", got)
	}
	if got := l.TransferTime(-5); got != l.Latency {
		t.Errorf("TransferTime(-5) = %v, want latency", got)
	}
}

func TestLinkTransferTimeMonotonic(t *testing.T) {
	l := P100().D2H
	prev := sim.Time(0)
	for bytes := int64(1); bytes < 1<<34; bytes *= 4 {
		d := l.TransferTime(bytes)
		if d < prev {
			t.Fatalf("transfer time decreased at %d bytes: %v < %v", bytes, d, prev)
		}
		prev = d
	}
}

func TestComputeTimeRoofline(t *testing.T) {
	d := P100()
	// A fully saturated kernel at eff=1.0 with no ramp: flops/peak.
	got := d.ComputeTime(d.PeakFLOPS, 1.0, 0)
	want := d.KernelLaunch + sim.Second
	if got != want {
		t.Errorf("ComputeTime(peak,1,0) = %v, want %v", got, want)
	}
	// Zero work costs only the launch.
	if got := d.ComputeTime(0, 0.5, 1e9); got != d.KernelLaunch {
		t.Errorf("ComputeTime(0) = %v, want launch overhead", got)
	}
}

func TestComputeTimeOccupancyRamp(t *testing.T) {
	d := P100()
	// With a ramp, small kernels run at lower efficiency, so throughput
	// (flops per second) must increase with kernel size.
	small := d.ComputeTime(1e8, 0.7, 2e9) - d.KernelLaunch
	large := d.ComputeTime(1e11, 0.7, 2e9) - d.KernelLaunch
	smallTput := 1e8 / small.Seconds()
	largeTput := 1e11 / large.Seconds()
	if largeTput <= smallTput {
		t.Errorf("throughput did not grow with kernel size: small %.3g, large %.3g", smallTput, largeTput)
	}
	// At half-saturation work, efficiency is half of maxEff.
	half := d.ComputeTime(2e9, 0.7, 2e9) - d.KernelLaunch
	want := sim.FromSeconds(2e9 / (d.PeakFLOPS * 0.35))
	if diff := half - want; diff < -sim.Microsecond || diff > sim.Microsecond {
		t.Errorf("half-saturation time = %v, want ~%v", half, want)
	}
}

func TestMemoryTime(t *testing.T) {
	d := P100()
	got := d.MemoryTime(int64(d.MemBandwidth))
	want := d.KernelLaunch + sim.Second
	if got != want {
		t.Errorf("MemoryTime(bw) = %v, want %v", got, want)
	}
	if got := d.MemoryTime(0); got != d.KernelLaunch {
		t.Errorf("MemoryTime(0) = %v, want launch", got)
	}
}

func TestDeviceCatalog(t *testing.T) {
	p, v, t4 := P100(), V100(), T4()
	if p.MemoryBytes != 16*GiB {
		t.Errorf("P100 memory = %d, want 16 GiB", p.MemoryBytes)
	}
	if v.MemoryBytes != 32*GiB {
		t.Errorf("V100 memory = %d, want 32 GiB", v.MemoryBytes)
	}
	if v.PeakFLOPS <= p.PeakFLOPS {
		t.Error("V100 should be faster than P100")
	}
	if t4.D2H.BytesPerSec >= p.D2H.BytesPerSec {
		t.Error("T4 link should be slower than P100's PCIe 3.0 x16")
	}
	for _, d := range []DeviceSpec{p, v, t4} {
		if d.Name == "" || d.PeakFLOPS <= 0 || d.MemBandwidth <= 0 || d.KernelLaunch <= 0 {
			t.Errorf("incomplete spec: %+v", d)
		}
		if d.EagerDispatch <= 0 || d.TrackAccess <= 0 {
			t.Errorf("%s: missing overhead parameters", d.Name)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: Validate = %v", d.Name, err)
		}
	}
}

// TestDeviceSpecValidate: a rate that is not positive and finite, or a
// negative overhead, fails Validate with a *DeviceError naming the
// field; zero overheads pass.
func TestDeviceSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		field string // "" means valid
		edit  func(*DeviceSpec)
	}{
		{"PeakFLOPS", func(d *DeviceSpec) { d.PeakFLOPS = 0 }},
		{"PeakFLOPS", func(d *DeviceSpec) { d.PeakFLOPS = math.Inf(1) }},
		{"MemBandwidth", func(d *DeviceSpec) { d.MemBandwidth = math.NaN() }},
		{"MemBandwidth", func(d *DeviceSpec) { d.MemBandwidth = -1 }},
		{"D2H.BytesPerSec", func(d *DeviceSpec) { d.D2H = Link{} }},
		{"H2D.BytesPerSec", func(d *DeviceSpec) { d.H2D.BytesPerSec = -12e9 }},
		{"KernelLaunch", func(d *DeviceSpec) { d.KernelLaunch = -1 }},
		{"D2H.Latency", func(d *DeviceSpec) { d.D2H.Latency = -1 }},
		{"H2D.Latency", func(d *DeviceSpec) { d.H2D.Latency = -sim.Microsecond }},
		{"EagerDispatch", func(d *DeviceSpec) { d.EagerDispatch = -1 }},
		{"TrackAccess", func(d *DeviceSpec) { d.TrackAccess = -1 }},
		{"", func(d *DeviceSpec) {
			d.KernelLaunch, d.EagerDispatch, d.TrackAccess, d.D2H.Latency, d.H2D.Latency = 0, 0, 0, 0, 0
		}},
	} {
		d := P100()
		tc.edit(&d)
		err := d.Validate()
		var de *DeviceError
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("valid spec: Validate = %v", err)
		case tc.field != "" && (!errors.As(err, &de) || de.Field != tc.field || de.Device != d.Name):
			t.Errorf("Validate = %v, want a *DeviceError on %s", err, tc.field)
		}
	}
}

func TestByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string // spec name; "" means an error
	}{
		{"p100", P100().Name},
		{"V100", V100().Name},
		{"t4", T4().Name},
		{"T4", T4().Name},
		{"a100", ""},
		{"", ""},
	} {
		d, err := ByName(tc.name)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("ByName(%q) = %s, want an error", tc.name, d.Name)
		case tc.want != "" && (err != nil || d.Name != tc.want):
			t.Errorf("ByName(%q) = %q, %v; want %q", tc.name, d.Name, err, tc.want)
		}
	}
}

func TestGiBToBytes(t *testing.T) {
	for _, tc := range []struct {
		gib  float64
		want int64 // -1 means an error
	}{
		{0, 0},
		{16, 16 * GiB},
		{1.5, 3 * GiB / 2},
		{1 / float64(GiB), 1},
		{4096, MaxMemory},
		{1e-12, -1},
		{-3, -1},
		{4096.5, -1},
		{9e9, -1},
		{math.NaN(), -1},
		{math.Inf(1), -1},
		{math.Inf(-1), -1},
	} {
		got, err := GiBToBytes(tc.gib)
		switch {
		case tc.want < 0 && err == nil:
			t.Errorf("GiBToBytes(%g) = %d, want an error", tc.gib, got)
		case tc.want >= 0 && (err != nil || got != tc.want):
			t.Errorf("GiBToBytes(%g) = %d, %v; want %d", tc.gib, got, err, tc.want)
		}
	}
}

func TestPaperSwapBandwidthScale(t *testing.T) {
	// §6.2: swapping ~25 GB out takes ~1.97 s and back in ~2.60 s on the
	// P100. Our link model should land in that ballpark (within 25%).
	d := P100()
	out := d.D2H.TransferTime(25 * GiB).Seconds()
	in := d.H2D.TransferTime(25 * GiB).Seconds()
	if out < 1.5 || out > 2.6 {
		t.Errorf("25 GiB swap-out = %.2fs, paper measured ~1.97s", out)
	}
	if in < 1.9 || in > 3.2 {
		t.Errorf("25 GiB swap-in = %.2fs, paper measured ~2.60s", in)
	}
	if out >= in {
		t.Error("D2H should be faster than H2D per the paper's measurement")
	}
}

func TestWithMemory(t *testing.T) {
	d := P100().WithMemory(8 * GiB)
	if d.MemoryBytes != 8*GiB {
		t.Errorf("WithMemory = %d, want 8 GiB", d.MemoryBytes)
	}
	if d.Name != P100().Name {
		t.Error("WithMemory changed unrelated fields")
	}
}

func TestAllReduceTime(t *testing.T) {
	ic := Interconnect{LinkBytesPerSec: 10e9, LinkLatency: 10 * sim.Microsecond,
		ContentionSlowdown: 2, BucketBytes: 25 * MiB}
	// A single device or empty payload needs no communication at all.
	if got := ic.AllReduceTime(1, 1<<30); got != 0 {
		t.Errorf("AllReduceTime(1 device) = %v, want 0", got)
	}
	if got := ic.AllReduceTime(4, 0); got != 0 {
		t.Errorf("AllReduceTime(0 bytes) = %v, want 0", got)
	}
	// Ring all-reduce of B bytes across N replicas moves 2(N-1)/N · B over
	// each link in 2(N-1) latency-bound steps.
	for _, n := range []int{2, 4, 8} {
		bytes := int64(10e9) // one second of wire time at full payload
		got := ic.AllReduceTime(n, bytes)
		wire := sim.FromSeconds(2 * float64(n-1) / float64(n) * float64(bytes) / 10e9)
		want := sim.Time(2*(n-1))*ic.LinkLatency + wire
		if got != want {
			t.Errorf("AllReduceTime(%d, %d) = %v, want %v", n, bytes, got, want)
		}
	}
	// Per-replica traffic grows toward 2B as N grows, so the cost is
	// monotone in N for a fixed payload.
	prev := sim.Time(0)
	for n := 2; n <= 16; n++ {
		d := ic.AllReduceTime(n, 100*MiB)
		if d <= prev {
			t.Fatalf("all-reduce cost not monotone at N=%d: %v <= %v", n, d, prev)
		}
		prev = d
	}
	if def := PCIeRing(); def.BucketBytes != 25*MiB || def.ContentionSlowdown <= 1 {
		t.Errorf("PCIeRing defaults incomplete: %+v", def)
	}
}

func TestDegradedTransferTime(t *testing.T) {
	l := Link{BytesPerSec: 10e9, Latency: 15 * sim.Microsecond}
	// A slowdown of 1 or less must reproduce TransferTime exactly — the
	// fault-free golden outputs depend on this identity.
	for _, f := range []float64{-1, 0, 0.5, 1} {
		if got, want := l.DegradedTransferTime(1<<20, f), l.TransferTime(1<<20); got != want {
			t.Errorf("DegradedTransferTime(1MiB, %g) = %v, want %v", f, got, want)
		}
	}
	if got, want := l.DegradedTransferTime(0, 4), l.TransferTime(0); got != want {
		t.Errorf("DegradedTransferTime(0, 4) = %v, want %v", got, want)
	}
	// The factor scales only the bandwidth term, not the setup latency
	// (±1ns float rounding between the two computations is acceptable).
	base := l.TransferTime(1 << 20)
	got, want := l.DegradedTransferTime(1<<20, 4)-l.Latency, 4*(base-l.Latency)
	if diff := got - want; diff < -2 || diff > 2 {
		t.Errorf("degraded bandwidth term = %v, want %v", got, want)
	}
}
