package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/ops"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// testCNN builds a small conv net. fcName names the classifier weight:
// fingerprints hash the op/tensor ID chain, so replicas built with
// different names compute observably different updates (the divergence
// test depends on this).
func testCNN(t *testing.T, batch int64, fcName string) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder("testcnn")
	x := b.Input("data", tensor.Shape{batch, 3, 64, 64}, tensor.Float32)
	labels := b.Input("labels", tensor.Shape{batch, 10}, tensor.Float32)
	h := x
	ch := int64(16)
	for i, name := range []string{"conv0", "conv1", "conv2", "conv3"} {
		w := b.Variable(name+"_w", tensor.Shape{ch * 2, h.Shape[1], 3, 3})
		h = b.Apply1(name, ops.Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, h, w)
		h = b.Apply1("relu"+name[4:], ops.ReLU, h)
		ch *= 2
		_ = i
	}
	h = b.Apply1("gap", ops.Pool{Kind: ops.AvgPoolKind}, h)
	flat := b.Apply1("flatten", ops.Reshape{To: tensor.Shape{batch, h.Shape.Elems() / batch}}, h)
	w := b.Variable(fcName, tensor.Shape{flat.Shape[1], 10})
	logits := b.Apply1("fc", ops.MatMul{}, flat, w)
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, logits, labels)
	g, err := b.Build(loss, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newTestCluster builds an N-replica cluster of the test CNN on roomy
// devices (no memory pressure, NullPolicy).
func newTestCluster(t *testing.T, devices int, commAware bool) *Cluster {
	t.Helper()
	c, err := New(Config{
		Devices:   devices,
		CommAware: commAware,
		Build: func(replica int) (*graph.Graph, error) {
			return testCNN(t, 8, "fc_w"), nil
		},
		Exec: func(replica int, g *graph.Graph) (exec.Config, error) {
			return exec.Config{Device: hw.P100().WithMemory(2 * hw.GiB)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSingleDeviceIdentity is the differential oracle the issue demands:
// a one-device cluster (comm-aware or not) must be byte-identical to a
// plain session — same graph, same config, same per-iteration stats.
func TestSingleDeviceIdentity(t *testing.T) {
	const iters = 3
	plain, err := exec.NewSession(testCNN(t, 8, "fc_w"), exec.Config{Device: hw.P100().WithMemory(2 * hw.GiB)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	for _, aware := range []bool{false, true} {
		c := newTestCluster(t, 1, aware)
		stats, err := c.Run(iters)
		if err != nil {
			t.Fatalf("commAware=%v: %v", aware, err)
		}
		for i, st := range stats {
			if len(st.Replicas) != 1 {
				t.Fatalf("commAware=%v iter %d: %d replicas", aware, i, len(st.Replicas))
			}
			if st.Replicas[0] != want[i] {
				t.Errorf("commAware=%v iter %d: replica stats diverged from plain session\n got %+v\nwant %+v",
					aware, i, st.Replicas[0], want[i])
			}
			if st.Duration != want[i].Duration {
				t.Errorf("commAware=%v iter %d: cluster duration %v != session duration %v",
					aware, i, st.Duration, want[i].Duration)
			}
			if st.AllReduceBuckets != 0 || st.AllReduceBytes != 0 || st.ExposedComm != 0 {
				t.Errorf("commAware=%v iter %d: single-device cluster communicated: %+v", aware, i, st)
			}
		}
	}
}

func TestTwoDeviceIteration(t *testing.T) {
	c := newTestCluster(t, 2, true)

	// Iteration 0 runs windowless (one-step-lag forecast has no history).
	st0, err := c.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if st0.AllReduceBuckets == 0 || st0.AllReduceBytes == 0 {
		t.Fatalf("no all-reduce traffic: %+v", st0)
	}
	if st0.AllReduceTime <= 0 {
		t.Error("zero all-reduce time")
	}
	if len(c.predicted) == 0 {
		t.Fatal("iteration 0 did not seed the window forecast")
	}
	for _, w := range c.predicted {
		if w.End <= w.Start || w.Slowdown <= 1 {
			t.Errorf("degenerate predicted window %+v", w)
		}
	}

	// The barrier covers the slowest replica plus the exposed tail.
	slowest := sim.Time(0)
	for _, rs := range st0.Replicas {
		if rs.Duration > slowest {
			slowest = rs.Duration
		}
	}
	if st0.Duration < slowest {
		t.Errorf("cluster duration %v < slowest replica %v", st0.Duration, slowest)
	}
	if st0.ExposedComm != st0.Duration-slowest {
		t.Errorf("ExposedComm = %v, want %v", st0.ExposedComm, st0.Duration-slowest)
	}

	// Iteration 1 installs the rebased forecast into every replica.
	st1, err := c.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range c.replicas {
		if len(r.comm.windows) == 0 {
			t.Errorf("replica %d ran iteration 1 without a window forecast", i)
		}
	}
	if st1.ParamFingerprint == 0 || st1.ParamFingerprint == st0.ParamFingerprint {
		t.Errorf("parameter fingerprint did not advance: %x -> %x", st0.ParamFingerprint, st1.ParamFingerprint)
	}
	// Symmetric replicas: identical gradient schedules, identical traffic.
	if st1.AllReduceBytes != st0.AllReduceBytes {
		t.Errorf("all-reduce bytes drifted: %d -> %d", st0.AllReduceBytes, st1.AllReduceBytes)
	}
}

func TestClusterDeterminism(t *testing.T) {
	run := func() []IterStats {
		stats, err := newTestCluster(t, 2, true).Run(3)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical cluster runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestFingerprintDivergenceDetected pins the cross-replica consistency
// oracle: replicas computing different work must fail the barrier check.
func TestFingerprintDivergenceDetected(t *testing.T) {
	c, err := New(Config{
		Devices: 2,
		Build: func(replica int) (*graph.Graph, error) {
			return testCNN(t, 8, fmt.Sprintf("fc_w_r%d", replica)), nil // asymmetric graphs
		},
		Exec: func(replica int, g *graph.Graph) (exec.Config, error) {
			return exec.Config{Device: hw.P100().WithMemory(2 * hw.GiB)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.RunIteration()
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Errorf("asymmetric replicas not detected: err = %v", err)
	}
}

func TestCoalesce(t *testing.T) {
	grads := []exec.GradEvent{
		{At: 10, Bytes: 30},
		{At: 20, Bytes: 30},
		{At: 15, Bytes: 50}, // closes bucket 0 at ready = max(10,20,15) = 20
		{At: 40, Bytes: 25}, // tail bucket
	}
	got := coalesce(grads, 100)
	want := []bucket{
		{bytes: 110, ready: 20},
		{bytes: 25, ready: 40},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("coalesce = %+v, want %+v", got, want)
	}
	if got := coalesce(nil, 100); len(got) != 0 {
		t.Errorf("coalesce(nil) = %+v", got)
	}
	// bucketBytes <= 0 falls back to the PCIe-ring default rather than
	// producing one bucket per gradient of size zero.
	def := coalesce(grads, 0)
	if len(def) != 1 || def[0].bytes != 135 {
		t.Errorf("default-bucket coalesce = %+v", def)
	}
}

func TestWindowModel(t *testing.T) {
	m := &windowModel{windows: []exec.CommWindow{
		{Start: 10, End: 20, Slowdown: 2},
		{Start: 30, End: 40, Slowdown: 3},
	}}
	for _, tc := range []struct {
		at   sim.Time
		ok   bool
		slow float64
	}{
		{5, false, 0}, {10, true, 2}, {19, true, 2}, {20, false, 0},
		{35, true, 3}, {40, false, 0}, {100, false, 0},
	} {
		w, ok := m.WindowAt(tc.at)
		if ok != tc.ok || (ok && w.Slowdown != tc.slow) {
			t.Errorf("WindowAt(%d) = %+v, %v; want ok=%v slow=%v", tc.at, w, ok, tc.ok, tc.slow)
		}
	}
}

// TestMoreDevicesMoreComm sanity-checks the ring model end to end: the
// same workload on more devices spends at least as long communicating.
func TestMoreDevicesMoreComm(t *testing.T) {
	steady := func(devices int) IterStats {
		stats, err := newTestCluster(t, devices, true).Run(2)
		if err != nil {
			t.Fatal(err)
		}
		return stats[len(stats)-1]
	}
	s2, s4 := steady(2), steady(4)
	if s4.AllReduceTime < s2.AllReduceTime {
		t.Errorf("all-reduce time shrank with more devices: N=2 %v, N=4 %v",
			s2.AllReduceTime, s4.AllReduceTime)
	}
	if s2.AllReduceBytes != s4.AllReduceBytes {
		t.Errorf("per-replica gradient bytes changed with N: %d vs %d",
			s2.AllReduceBytes, s4.AllReduceBytes)
	}
}

// TestSharedCollector pins the shared Config.Tracer: every replica's
// events land in one Collector, the kernel histogram folded from it
// (obs.BuildMetrics) scales with the replica count, and tracing never
// changes the simulation (observation, not participation).
func TestSharedCollector(t *testing.T) {
	run := func(devices int, col *obs.Collector) []IterStats {
		cfg := Config{
			Devices: devices,
			Build: func(replica int) (*graph.Graph, error) {
				return testCNN(t, 8, "fc_w"), nil
			},
			Exec: func(replica int, g *graph.Graph) (exec.Config, error) {
				return exec.Config{Device: hw.P100().WithMemory(2 * hw.GiB)}, nil
			},
		}
		if col != nil {
			cfg.Tracer = col
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := c.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}

	c1, c2 := obs.NewCollector(), obs.NewCollector()
	plain := run(2, nil)
	observed := run(2, c2)
	if !reflect.DeepEqual(plain, observed) {
		t.Error("attaching a tracer changed the cluster's statistics")
	}
	run(1, c1)

	m1 := obs.BuildMetrics(c1.Events(), c1.Decisions())
	m2 := obs.BuildMetrics(c2.Events(), c2.Decisions())
	h1, ok1 := m1.Hist("kernel")
	h2, ok2 := m2.Hist("kernel")
	if !ok1 || !ok2 {
		t.Fatal("no kernel histogram folded")
	}
	if h2.Count != 2*h1.Count {
		t.Errorf("2-replica kernel count %d, want twice the 1-replica count %d", h2.Count, h1.Count)
	}

	// The folded registry renders for Prometheus like any other.
	var buf strings.Builder
	if err := m2.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "capuchin_kernel_seconds_count") {
		t.Errorf("exposition missing kernel histogram:\n%s", buf.String())
	}
}
