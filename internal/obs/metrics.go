package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"capuchin/internal/sim"
)

// histBuckets is the number of exponential histogram buckets: bucket 0
// holds durations under 1µs, bucket i holds [2^(i-1), 2^i) µs, and the
// last bucket is open-ended (≥ ~1.1 minutes of virtual time).
const histBuckets = 28

// Histogram accumulates a virtual-time duration distribution in
// exponential microsecond buckets.
type Histogram struct {
	Count    int64
	Sum      sim.Time
	Min, Max sim.Time
	Buckets  [histBuckets]int64
}

// bucketFor maps a duration to its bucket index.
func bucketFor(d sim.Time) int {
	us := int64(d) / int64(sim.Microsecond)
	i := 0
	for us > 0 && i < histBuckets-1 {
		us >>= 1
		i++
	}
	return i
}

// bucketUpper is the exclusive upper bound of bucket i: 2^i µs.
func bucketUpper(i int) sim.Time {
	return sim.Time(int64(1)<<uint(i)) * sim.Microsecond
}

// Observe records one duration.
func (h *Histogram) Observe(d sim.Time) {
	if h.Count == 0 || d < h.Min {
		h.Min = d
	}
	if d > h.Max {
		h.Max = d
	}
	h.Count++
	h.Sum += d
	h.Buckets[bucketFor(d)]++
}

// Merge adds another histogram's observations into h. Both sides always
// share the same bucket layout — histBuckets and the exponential
// microsecond edges are compile-time constants, so a "differing layout"
// cannot be constructed — and Merge is therefore exact element-wise
// addition: counts, sums and bucket occupancies add, Min/Max take the
// extrema, and quantile upper bounds after a merge are identical to
// observing both streams into one histogram. Pinned by
// TestMergeEquivalence.
func (h *Histogram) Merge(o *Histogram) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Mean reports the average observed duration.
func (h *Histogram) Mean() sim.Time {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / sim.Time(h.Count)
}

// Quantile reports an upper bound for the p-quantile as the exclusive
// upper edge of the bucket containing it, clamped to the observed Max;
// the true value lies within a factor of two below.
//
// Edge cases are defined so callers never special-case:
//
//   - an empty histogram returns 0 for every p;
//   - p <= 0 returns Min and p >= 1 returns Max (exact);
//   - a single-sample histogram returns that sample for every p,
//     because the bucket upper edge clamps to Max == Min == the sample.
//
// The contract is pinned by TestHistogramQuantileContract's property
// test in metrics_test.go.
func (h *Histogram) Quantile(p float64) sim.Time {
	if h.Count == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min
	}
	if p >= 1 {
		return h.Max
	}
	target := int64(p * float64(h.Count))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, n := range h.Buckets {
		seen += n
		if seen >= target {
			if i == histBuckets-1 {
				return h.Max
			}
			u := bucketUpper(i)
			if u > h.Max {
				return h.Max
			}
			return u
		}
	}
	return h.Max
}

// Metrics is a registry of named counters and virtual-time histograms.
// It is safe for concurrent use, so the parallel bench runner can let
// worker sessions share one registry and Merge per-run registries into a
// fleet-wide aggregate.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{counters: make(map[string]int64), hists: make(map[string]*Histogram)}
}

// Add increments a named counter.
func (m *Metrics) Add(name string, delta int64) {
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Observe records a duration in a named histogram.
func (m *Metrics) Observe(name string, d sim.Time) {
	m.mu.Lock()
	m.observe(name, d)
	m.mu.Unlock()
}

// Counter reads a named counter (zero when never incremented).
func (m *Metrics) Counter(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Hist returns a copy of a named histogram and whether it exists.
func (m *Metrics) Hist(name string) (Histogram, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[name]
	if !ok {
		return Histogram{}, false
	}
	return *h, true
}

// Merge folds another registry into m.
func (m *Metrics) Merge(o *Metrics) {
	if o == nil {
		return
	}
	o.mu.Lock()
	counters := make(map[string]int64, len(o.counters))
	for k, v := range o.counters {
		counters[k] = v
	}
	hists := make(map[string]Histogram, len(o.hists))
	for k, h := range o.hists {
		hists[k] = *h
	}
	o.mu.Unlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range counters {
		m.counters[k] += v
	}
	for k, h := range hists {
		dst := m.hists[k]
		if dst == nil {
			dst = &Histogram{}
			m.hists[k] = dst
		}
		hc := h
		dst.Merge(&hc)
	}
}

// WriteText prints the registry deterministically: counters first, then
// histograms, both sorted by name.
func (m *Metrics) WriteText(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	names := make([]string, 0, len(m.counters))
	for k := range m.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(w, "counters:\n")
		for _, k := range names {
			fmt.Fprintf(w, "  %-32s %d\n", k, m.counters[k])
		}
	}

	names = names[:0]
	for k := range m.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(w, "histograms (virtual time):\n")
		fmt.Fprintf(w, "  %-32s %8s %12s %12s %12s %12s\n", "name", "count", "mean", "p50", "p99", "max")
		for _, k := range names {
			h := m.hists[k]
			fmt.Fprintf(w, "  %-32s %8d %12v %12v %12v %12v\n",
				k, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max)
		}
	}
	return nil
}

// faultCounters names the counter of each fault instant the executor
// emits; the "retry" instant that follows a DMA abort counts nothing.
var faultCounters = map[string]string{
	"kernel-spike": "faults/kernel-spike",
	"alloc-fault":  "faults/alloc",
	"dma-abort":    "faults/transfer",
	"host-fault":   "faults/host",
}

// decisionCounters names the counter of each counted decision action.
var decisionCounters = map[string]string{
	"swap-out":           "swap/out",
	"prefetch":           "swap/prefetch",
	"ondemand-swapin":    "swap/ondemand",
	"fallback-recompute": "fallback/recompute",
	"passive-evict":      "evict/passive",
	"comm-defer":         "comm/defer",
}

// BuildMetrics folds a run's event log and decision audit into a metrics
// registry. It is the one mapping from what the executor records to
// metric names: spans observe their durations (a landed transfer also
// its queueing delay, Start - Queued), and the fault and oom-recovered
// instants and the decisionCounters actions count. Whatever else the log
// holds lands in no metric.
func BuildMetrics(events []Event, decisions []Decision) *Metrics {
	m := NewMetrics()
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case KindSpan:
			switch ev.Cat {
			case "kernel", "recompute":
				m.observe(ev.Cat, ev.End-ev.Start)
			case "stall":
				m.observe("stall/"+ev.Detail, ev.End-ev.Start)
			case "transfer":
				if ev.Detail != "aborted" {
					m.observe("transfer/"+ev.Lane, ev.End-ev.Start)
					m.observe("transfer-queue/"+ev.Lane, ev.Start-ev.Queued)
				}
			}
		case KindInstant:
			switch {
			case ev.Cat == "fault":
				if k, ok := faultCounters[ev.Name]; ok {
					m.counters[k]++
				}
			case ev.Cat == "oom" && ev.Name == "oom-recovered":
				m.counters["oom/recoveries"]++
			}
		}
	}
	for i := range decisions {
		if k, ok := decisionCounters[decisions[i].Action]; ok {
			m.counters[k]++
		}
	}
	return m
}

// observe is Observe with m.mu held, or on a registry not yet shared.
func (m *Metrics) observe(name string, d sim.Time) {
	h := m.hists[name]
	if h == nil {
		h = &Histogram{}
		m.hists[name] = h
	}
	h.Observe(d)
}
