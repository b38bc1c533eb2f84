package obs

import (
	"fmt"
	"io"
	"sort"

	"capuchin/internal/memory"
	"capuchin/internal/sim"
)

// ResidencySpan is one interval during which a tensor held device memory.
type ResidencySpan struct {
	From, To sim.Time
	Bytes    int64
	// How records why the tensor became resident ("produce", "prefetch",
	// "ondemand", "recompute", "persistent") and Until why it stopped
	// ("dead", "evict", "swapout-complete", "fallback", "end-iter");
	// Until is empty while still resident at the end of the trace.
	How, Until string
}

// TensorFootprint attributes part of the peak to one tensor.
type TensorFootprint struct {
	Tensor string
	Bytes  int64
	// Share is Bytes relative to the peak usage.
	Share float64
	// How the tensor became resident, and since when.
	How   string
	Since sim.Time
}

// FragSample is one fragmentation measurement of the device allocator.
type FragSample struct {
	At          sim.Time
	Used, Free  int64
	LargestFree int64
	// Fragmentation is memory.FragRatio(LargestFree, Free): clamped to
	// [0, 1], 0 when nothing is free.
	Fragmentation float64
}

// MemProfile is the reconstructed memory behaviour of one run: the
// high-water mark with per-tensor attribution, per-tensor residency
// timelines, and the fragmentation ratio over time.
type MemProfile struct {
	// PeakBytes is the device high-water mark (allocator-reported, i.e.
	// including chunk rounding) and PeakAt when it was first reached.
	PeakBytes int64
	PeakAt    sim.Time
	// PeakResidents attributes the high-water mark: the tensors holding
	// memory at PeakAt, largest first.
	PeakResidents []TensorFootprint
	// HostPeak is the pinned host arena high-water mark.
	HostPeak int64
	// Residency maps tensor ID to its residency intervals.
	Residency map[string][]ResidencySpan
	// Frag samples the fragmentation ratio at every memory event.
	Frag []FragSample
}

// liveEntry tracks one currently resident tensor during reconstruction.
type liveEntry struct {
	bytes int64
	since sim.Time
	how   string
}

// BuildMemProfile reconstructs a memory profile from a recorded event
// stream (the "alloc" and "free" events the executor emits with
// allocator samples attached).
func BuildMemProfile(events []Event) *MemProfile {
	p := &MemProfile{Residency: make(map[string][]ResidencySpan)}
	live := make(map[string]liveEntry)
	peakIdx := -1
	for i, ev := range events {
		switch ev.Cat {
		case "alloc":
			if ev.Tensor != "" {
				live[ev.Tensor] = liveEntry{bytes: ev.Bytes, since: ev.Start, how: ev.Detail}
			}
		case "free":
			if ev.Tensor != "" {
				if e, ok := live[ev.Tensor]; ok {
					p.Residency[ev.Tensor] = append(p.Residency[ev.Tensor], ResidencySpan{
						From: e.since, To: ev.Start, Bytes: e.bytes, How: e.how, Until: ev.Detail,
					})
					delete(live, ev.Tensor)
				}
			}
		default:
			continue
		}
		if ev.Used > p.PeakBytes {
			p.PeakBytes = ev.Used
			p.PeakAt = ev.Start
			peakIdx = i
		}
		if ev.HostUsed > p.HostPeak {
			p.HostPeak = ev.HostUsed
		}
		s := FragSample{At: ev.Start, Used: ev.Used, Free: ev.Free, LargestFree: ev.LargestFree}
		s.Fragmentation = memory.FragRatio(s.LargestFree, s.Free)
		p.Frag = append(p.Frag, s)
	}
	// Close out tensors still resident at the end of the trace.
	for id, e := range live {
		p.Residency[id] = append(p.Residency[id], ResidencySpan{
			From: e.since, To: e.since, Bytes: e.bytes, How: e.how,
		})
	}
	for _, spans := range p.Residency {
		sort.Slice(spans, func(i, j int) bool { return spans[i].From < spans[j].From })
	}

	// Second pass: replay up to the peak event to attribute the
	// high-water mark tensor by tensor.
	if peakIdx >= 0 {
		atPeak := make(map[string]liveEntry)
		for _, ev := range events[:peakIdx+1] {
			switch ev.Cat {
			case "alloc":
				if ev.Tensor != "" {
					atPeak[ev.Tensor] = liveEntry{bytes: ev.Bytes, since: ev.Start, how: ev.Detail}
				}
			case "free":
				if ev.Tensor != "" {
					delete(atPeak, ev.Tensor)
				}
			}
		}
		for id, e := range atPeak {
			share := 0.0
			if p.PeakBytes > 0 {
				share = float64(e.bytes) / float64(p.PeakBytes)
			}
			p.PeakResidents = append(p.PeakResidents, TensorFootprint{
				Tensor: id, Bytes: e.bytes, Share: share, How: e.how, Since: e.since,
			})
		}
		sort.Slice(p.PeakResidents, func(i, j int) bool {
			a, b := p.PeakResidents[i], p.PeakResidents[j]
			if a.Bytes != b.Bytes {
				return a.Bytes > b.Bytes
			}
			return a.Tensor < b.Tensor
		})
	}
	return p
}

// MaxFragmentation reports the worst fragmentation ratio observed.
func (p *MemProfile) MaxFragmentation() (FragSample, bool) {
	var worst FragSample
	found := false
	for _, s := range p.Frag {
		if !found || s.Fragmentation > worst.Fragmentation {
			worst = s
			found = true
		}
	}
	return worst, found
}

// reportTopResidents bounds the attribution table in WriteReport.
const reportTopResidents = 12

// WriteReport prints the profile as the textual peak-memory attribution
// report: which tensors account for the high-water mark, the
// fragmentation timeline, and the most-churned residency histories.
func (p *MemProfile) WriteReport(w io.Writer) error {
	fmt.Fprintf(w, "== memory profile ==\n")
	if len(p.Frag) == 0 && len(p.PeakResidents) == 0 && len(p.Residency) == 0 {
		// An empty profile (no memory events recorded — e.g. a run that
		// never allocated, or a trace without alloc/free sampling) gets an
		// explicit marker instead of a misleading zero-valued report.
		fmt.Fprintf(w, "no memory events recorded\n")
		return nil
	}
	fmt.Fprintf(w, "device peak: %s at %v\n", FmtBytes(p.PeakBytes), p.PeakAt)
	fmt.Fprintf(w, "host peak:   %s\n", FmtBytes(p.HostPeak))

	fmt.Fprintf(w, "\npeak attribution (top %d of %d resident tensors):\n", min(reportTopResidents, len(p.PeakResidents)), len(p.PeakResidents))
	var covered int64
	for i, f := range p.PeakResidents {
		if i < reportTopResidents {
			fmt.Fprintf(w, "  %-28s %10s  %5.1f%%  %-10s since %v\n",
				f.Tensor, FmtBytes(f.Bytes), 100*f.Share, f.How, f.Since)
		}
		covered += f.Bytes
	}
	if p.PeakBytes > 0 {
		fmt.Fprintf(w, "  (%s of %s attributed; remainder is allocator rounding/workspace churn)\n",
			FmtBytes(covered), FmtBytes(p.PeakBytes))
	}

	if worst, ok := p.MaxFragmentation(); ok {
		mean := 0.0
		for _, s := range p.Frag {
			mean += s.Fragmentation
		}
		mean /= float64(len(p.Frag))
		fmt.Fprintf(w, "\nfragmentation: mean %.1f%%, worst %.1f%% at %v (free %s, largest contiguous %s)\n",
			100*mean, 100*worst.Fragmentation, worst.At, FmtBytes(worst.Free), FmtBytes(worst.LargestFree))
		fmt.Fprintf(w, "timeline (%d samples):\n", len(p.Frag))
		fmt.Fprintf(w, "  %-12s %10s %10s %10s %6s\n", "time", "used", "free", "largest", "frag")
		for _, s := range sampleFrag(p.Frag, 8) {
			fmt.Fprintf(w, "  %-12v %10s %10s %10s %5.1f%%\n",
				s.At, FmtBytes(s.Used), FmtBytes(s.Free), FmtBytes(s.LargestFree), 100*s.Fragmentation)
		}
	}

	type churn struct {
		id    string
		spans int
		bytes int64
	}
	var churns []churn
	for id, spans := range p.Residency {
		if len(spans) > 1 {
			churns = append(churns, churn{id, len(spans), spans[0].Bytes})
		}
	}
	sort.Slice(churns, func(i, j int) bool {
		if churns[i].spans != churns[j].spans {
			return churns[i].spans > churns[j].spans
		}
		return churns[i].id < churns[j].id
	})
	if len(churns) > 0 {
		fmt.Fprintf(w, "\nmost-churned tensors (evicted/recomputed and rematerialized):\n")
		for i, c := range churns {
			if i >= reportTopResidents {
				break
			}
			fmt.Fprintf(w, "  %-28s %10s  %d residency intervals\n", c.id, FmtBytes(c.bytes), c.spans)
		}
	}
	return nil
}

// sampleFrag picks up to n evenly spaced samples.
func sampleFrag(frag []FragSample, n int) []FragSample {
	if len(frag) <= n {
		return frag
	}
	out := make([]FragSample, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, frag[i*(len(frag)-1)/(n-1)])
	}
	return out
}
