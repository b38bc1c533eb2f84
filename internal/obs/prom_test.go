package obs

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"capuchin/internal/sim"
)

func TestPromName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"swap/out", "capuchin_swap_out"},
		{"fleet/queue-wait/CRITICAL", "capuchin_fleet_queue_wait_CRITICAL"},
		{"plain", "capuchin_plain"},
		{"a b.c", "capuchin_a_b_c"},
	}
	for _, c := range cases {
		if got := promName(c.in); got != c.want {
			t.Errorf("promName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	m := NewMetrics()
	m.Add("swap/out", 3)
	m.Add("faults/transfer", 1)
	m.Observe("kernel", 3*sim.Microsecond)
	m.Observe("kernel", 100*sim.Microsecond)

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE capuchin_faults_transfer_total counter\ncapuchin_faults_transfer_total 1\n",
		"# TYPE capuchin_swap_out_total counter\ncapuchin_swap_out_total 3\n",
		"# TYPE capuchin_kernel_seconds histogram\n",
		"capuchin_kernel_seconds_count 2\n",
		"capuchin_kernel_seconds_sum 0.000103\n",
		"capuchin_kernel_seconds_bucket{le=\"+Inf\"} 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
	// Counters sort before histograms, and within each group by name.
	if strings.Index(out, "faults_transfer") > strings.Index(out, "swap_out") {
		t.Error("counters not sorted by name")
	}
	if strings.Index(out, "swap_out") > strings.Index(out, "kernel_seconds") {
		t.Error("counters must precede histograms")
	}
	// Cumulative le buckets: 3µs lands in bucket le=4µs, 100µs in le=128µs.
	if !strings.Contains(out, "capuchin_kernel_seconds_bucket{le=\"4e-06\"} 1\n") {
		t.Errorf("expected cumulative le=4e-06 bucket with count 1; got:\n%s", out)
	}
	if !strings.Contains(out, "capuchin_kernel_seconds_bucket{le=\"0.000128\"} 2\n") {
		t.Errorf("expected cumulative le=0.000128 bucket with count 2; got:\n%s", out)
	}
}

// TestWritePrometheusDeterministic pins byte-identical expositions for
// registries built in different insertion orders — the property
// `make regress-smoke` relies on when it cmps two runs.
func TestWritePrometheusDeterministic(t *testing.T) {
	build := func(perm []int) *Metrics {
		m := NewMetrics()
		names := []string{"a/x", "b/y", "c-z", "d"}
		for _, i := range perm {
			m.Add(names[i], int64(i+1))
			m.Observe("h/"+names[i], sim.Time(i+1)*sim.Millisecond)
		}
		return m
	}
	var first string
	for i, perm := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}} {
		var buf bytes.Buffer
		if err := build(perm).WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.String()
			continue
		}
		if buf.String() != first {
			t.Fatalf("exposition differs for insertion order %v", perm)
		}
	}
}

// TestHistogramQuantileContract is the property test pinning the
// documented Quantile edge cases: defined values on empty and
// single-sample histograms, exact Min/Max at the extremes, upper-bound
// semantics within a factor of two elsewhere, and monotonicity in p.
func TestHistogramQuantileContract(t *testing.T) {
	var empty Histogram
	for _, p := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := empty.Quantile(p); got != 0 {
			t.Errorf("empty.Quantile(%v) = %v, want 0", p, got)
		}
	}

	var single Histogram
	single.Observe(7 * sim.Millisecond)
	for _, p := range []float64{-1, 0, 0.25, 0.5, 0.99, 1, 2} {
		if got := single.Quantile(p); got != 7*sim.Millisecond {
			t.Errorf("single.Quantile(%v) = %v, want 7ms", p, got)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var h Histogram
		n := 1 + rng.Intn(50)
		samples := make([]int64, n)
		for i := range samples {
			samples[i] = rng.Int63n(int64(10 * sim.Second))
			h.Observe(sim.Time(samples[i]))
		}
		if got := h.Quantile(0); got != h.Min {
			t.Fatalf("trial %d: Quantile(0) = %v, want Min %v", trial, got, h.Min)
		}
		if got := h.Quantile(1); got != h.Max {
			t.Fatalf("trial %d: Quantile(1) = %v, want Max %v", trial, got, h.Max)
		}
		prev := sim.Time(-1)
		for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
			q := h.Quantile(p)
			if q < h.Min || q > h.Max {
				t.Fatalf("trial %d: Quantile(%v) = %v outside [%v, %v]", trial, p, q, h.Min, h.Max)
			}
			if q < prev {
				t.Fatalf("trial %d: Quantile not monotone at p=%v: %v < %v", trial, p, q, prev)
			}
			prev = q
		}
	}
}

// TestMergeEquivalence pins the Merge contract: merging two histograms
// is exactly equivalent to observing both sample streams into one —
// same counts, sums, extrema, buckets, and therefore same quantiles.
func TestMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		var a, b, both Histogram
		for i, n := 0, rng.Intn(30); i < n; i++ {
			d := sim.Time(rng.Int63n(int64(60 * sim.Second)))
			a.Observe(d)
			both.Observe(d)
		}
		for i, n := 0, rng.Intn(30); i < n; i++ {
			d := sim.Time(rng.Int63n(int64(60 * sim.Second)))
			b.Observe(d)
			both.Observe(d)
		}
		merged := a
		merged.Merge(&b)
		if merged != both {
			t.Fatalf("trial %d: merged %+v != combined %+v", trial, merged, both)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: KindSpan, Cat: "kernel", Name: "conv1", Lane: "compute",
			Start: sim.Millisecond, End: 2 * sim.Millisecond, Iter: 3, Bytes: 64},
		{Kind: KindInstant, Cat: "oom", Name: "oom", Group: "device 1",
			Start: 5 * sim.Millisecond, End: 5 * sim.Millisecond, Detail: "alloc failed"},
		{Kind: KindCounter, Cat: "gauge", Name: "queue depth",
			Start: 6 * sim.Millisecond, Bytes: 4},
	}
	c := NewCollector()
	c.Decide(Decision{Action: "admit", Tensor: "job-1"})
	for _, ev := range events {
		c.Emit(ev)
	}
	c.Decide(Decision{At: 7 * sim.Millisecond, Policy: "fleet", Action: "oom-kill",
		Tensor: "job-9", Class: "LOW", Reason: "peak above reserve"})
	b, _, _ := c.AppendJSONL(nil, Cursor{})
	out := string(b)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(events)+2 {
		t.Fatalf("got %d lines, want %d", len(lines), len(events)+2)
	}
	for _, want := range []string{
		`"type":"event"`, `"kind":"span"`, `"kind":"instant"`, `"kind":"counter"`,
		`"cat":"gauge"`, `"group":"device 1"`, `"detail":"alloc failed"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("JSONL missing %s; got:\n%s", want, out)
		}
	}

	// Records render in emission order: the first decision precedes
	// every event and the last follows them.
	if got := lines[0]; !strings.Contains(got, `"type":"decision"`) || !strings.Contains(got, `"action":"admit"`) {
		t.Errorf("first decision line malformed: %s", got)
	}
	if got := lines[len(lines)-1]; !strings.Contains(got, `"type":"decision"`) ||
		!strings.Contains(got, `"action":"oom-kill"`) || !strings.Contains(got, `"class":"LOW"`) {
		t.Errorf("last decision line malformed: %s", got)
	}
}

// TestChromeGaugeCounter pins the generic gauge counter-track rendering
// used by the fleet's queue-depth track.
func TestChromeGaugeCounter(t *testing.T) {
	var buf bytes.Buffer
	err := WriteChromeTrace(&buf, []Event{{
		Kind: KindCounter, Cat: "gauge", Name: "queue depth",
		Group: "scheduler", Start: sim.Millisecond, Bytes: 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"name":"queue depth"`) || !strings.Contains(out, `"ph":"C"`) ||
		!strings.Contains(out, `"value":3`) {
		t.Errorf("gauge counter not rendered: %s", out)
	}
}
