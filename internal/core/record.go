// Package core implements Capuchin, the paper's contribution: a
// computation-graph-agnostic GPU memory manager that observes the dynamic
// tensor access pattern of one measured iteration (§4.2) and derives a
// hybrid swap/recomputation policy (§4.3–4.5) applied — and refined by
// runtime feedback — to all subsequent iterations.
//
// Every per-tensor table in this package is a slice indexed by
// Tensor.Idx, the tensor's dense index in its graph. Tensor ID strings
// appear only where a plan leaves the process: the exported JSON plan,
// audit decisions and DescribePlan.
package core

import (
	"cmp"
	"math"
	"slices"

	"capuchin/internal/bufs"
	"capuchin/internal/exec"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// liveForever marks tensors never deallocated during the measured
// iteration; their lifetime extends to the iteration end.
const liveForever = sim.Time(math.MaxInt64)

// accessRec is one recorded access of one tensor.
type accessRec struct {
	count int
	at    sim.Time
}

// record is the Tensor Access Tracker's per-tensor state: the access list
// with timestamps, the deallocation time, and the duration of the
// producing operation measured from the access stream (§4.4 derives
// recomputation costs by comparing output and input access times). A
// record with a nil t belongs to a tensor the iteration never touched.
type record struct {
	t           *tensor.Tensor
	size        int64
	accesses    []accessRec
	deallocAt   sim.Time
	producerDur sim.Time
}

// seqEntry is one entry of the global access sequence (all tensors, time
// ordered) used to locate in-trigger accesses: tensor idx's access number
// count.
type seqEntry struct {
	idx   int32
	count int32
	at    sim.Time
}

// tracker is the Tensor Access Tracker: it consumes the access stream of
// the measured iteration. A Capuchin policy keeps one tracker and resets
// it for each measured pass, so every slice below except seq is scratch
// the next pass reuses. seq becomes the plan's: the policy hands the
// tracker a new one after each plan build (see Capuchin.EndIteration).
type tracker struct {
	// records is indexed by Tensor.Idx.
	records []record
	// seq holds every access in observation order, which finish checks
	// is time order (sorting it by time when it is not); finish also
	// slices each record's accesses out of it.
	seq []seqEntry
	// events holds the usage curve's allocations and frees (see
	// usageEvents) as observe sees them: a non-persistent tensor's first
	// access and its Dealloc. unordered records that they are not one
	// allocation and at most one later free per tensor, in time order,
	// so usageEvents must rebuild and sort them.
	events    []usageEvent
	unordered bool
	// nodeStart records the first input-read time per node, indexed by
	// Node.Pos, to derive operation durations from the access stream;
	// noStart marks a node none of whose inputs has been read.
	nodeStart []sim.Time
	// endOfIteration is the adjusted time of the last observed access.
	endOfIteration sim.Time

	// end and flat are finish's scratch; curve is usageCurve's.
	end   []int32
	flat  []accessRec
	curve []usagePoint
}

// noStart is the nodeStart entry of a node whose inputs were never read.
const noStart = sim.Time(math.MinInt64)

// reset empties tk for a measured pass over a graph of n tensors and
// nodes nodes, reusing its arrays.
func (tk *tracker) reset(n, nodes int) {
	tk.records = bufs.Resized(tk.records, n)
	// Most tensors are produced once and read once or twice.
	tk.seq = slices.Grow(tk.seq[:0], 3*n)
	tk.events = slices.Grow(tk.events[:0], 2*n)
	tk.unordered = false
	tk.nodeStart = bufs.Resized(tk.nodeStart, nodes)
	for i := range tk.nodeStart {
		tk.nodeStart[i] = noStart
	}
	tk.endOfIteration = 0
}

// lookup returns the record of tensor i, or nil when the measured
// iteration never touched it.
func (tk *tracker) lookup(i int32) *record {
	if i < 0 || int(i) >= len(tk.records) || tk.records[i].t == nil {
		return nil
	}
	return &tk.records[i]
}

// observe ingests one access event from the measured execution.
func (tk *tracker) observe(acc exec.Access) {
	t := acc.Tensor
	i := int(t.Idx)
	if i < 0 || i >= len(tk.records) {
		return // not a tensor of the measured graph: nothing can key a plan on it
	}
	r := &tk.records[i]
	first := r.t == nil
	if first {
		*r = record{t: t, size: t.Bytes(), deallocAt: liveForever}
	}
	if acc.At > tk.endOfIteration {
		tk.endOfIteration = acc.At
	}
	switch acc.Kind {
	case exec.Dealloc:
		// A Dealloc before any access, or a second one, leaves the
		// frees to usageEvents' rebuild.
		tk.unordered = tk.unordered || first || r.deallocAt != liveForever
		r.deallocAt = acc.At
		tk.logUsage(t, acc.At, -r.size)
		return
	case exec.Read:
		if n := acc.Node; n != nil && n.Pos < len(tk.nodeStart) && tk.nodeStart[n.Pos] == noStart {
			tk.nodeStart[n.Pos] = acc.At
		}
	case exec.Produce:
		if n := acc.Node; n != nil && n.Pos < len(tk.nodeStart) {
			if start := tk.nodeStart[n.Pos]; start != noStart {
				r.producerDur = acc.At - start
			}
		}
	}
	if first {
		tk.logUsage(t, acc.At, r.size)
	}
	tk.seq = append(tk.seq, seqEntry{idx: int32(i), count: int32(acc.Count), at: acc.At})
}

// logUsage appends a non-persistent tensor's allocation or free to
// events, noting when it breaks time order.
func (tk *tracker) logUsage(t *tensor.Tensor, at sim.Time, delta int64) {
	if t.Persistent {
		return
	}
	if n := len(tk.events); n > 0 && at < tk.events[n-1].at {
		tk.unordered = true
	}
	tk.events = append(tk.events, usageEvent{at, delta})
}

// finish groups each tensor's accesses, in observation order, into one
// block that the records slice, and makes sure the global sequence is in
// time order. The executor reports accesses in time order, so an O(n)
// check normally finds it sorted; otherwise a stable sort keeps
// equal-time accesses in observation order.
func (tk *tracker) finish() {
	end := bufs.Resized(tk.end, len(tk.records)+1)
	tk.end = end
	for _, e := range tk.seq {
		end[e.idx+1]++
	}
	for i := 1; i < len(end); i++ {
		end[i] += end[i-1]
	}
	// end[i] is now where tensor i's block starts; filling the block
	// moves it to where the block ends.
	flat := bufs.Resized(tk.flat, len(tk.seq))
	tk.flat = flat
	for _, e := range tk.seq {
		flat[end[e.idx]] = accessRec{count: int(e.count), at: e.at}
		end[e.idx]++
	}
	var start int32
	for i := range tk.records {
		tk.records[i].accesses = flat[start:end[i]:end[i]]
		start = end[i]
	}
	byTime := func(a, b seqEntry) int { return cmp.Compare(a.at, b.at) }
	if !slices.IsSortedFunc(tk.seq, byTime) {
		slices.SortStableFunc(tk.seq, byTime)
	}
}

// lifetime returns the interval during which the tensor holds device
// memory on the hypothetical infinite-memory timeline.
func (r *record) lifetime() (from, to sim.Time) {
	if len(r.accesses) == 0 {
		return 0, 0
	}
	return r.accesses[0].at, r.deallocAt
}

// usagePoint is one step of the reconstructed memory-usage curve.
type usagePoint struct {
	at    sim.Time
	usage int64
}

// usageEvent is one allocation (positive delta) or free (negative).
type usageEvent struct {
	at    sim.Time
	delta int64
}

// usageCurve reconstructs the hypothetical (infinite-memory) activation
// usage curve from allocation and deallocation times (§4.5: "we can keep
// track allocation and deallocation time of tensors to infer memory
// usage"). Returns the curve, which tk reuses at the next call, and its
// peak.
//
// The curve has one point per timestamp at which some tensor is
// allocated or freed, holding the usage after all of that timestamp's
// events, and the peak is the highest such point (or 0). Both depend
// only on each timestamp's net delta, never on the order of its events,
// so any time-ordered event list gives the same curve and peak.
func (tk *tracker) usageCurve() ([]usagePoint, int64) {
	events := tk.usageEvents()
	curve := slices.Grow(tk.curve[:0], len(events))
	var usage, peak int64
	for i, e := range events {
		usage += e.delta
		if i+1 < len(events) && events[i+1].at == e.at {
			continue // the timestamp has more events
		}
		peak = max(peak, usage)
		curve = append(curve, usagePoint{at: e.at, usage: usage})
	}
	tk.curve = curve
	return curve, peak
}

// usageEvents lists, in time order, the allocation of every
// non-persistent tensor the iteration accessed, at its first access, and
// its free, at its last Dealloc. The executor reports accesses in time
// order, one Dealloc per tensor after its accesses, so the events
// observe logged are the list; otherwise it is rebuilt from the records
// and sorted. The list is tk's scratch.
func (tk *tracker) usageEvents() []usageEvent {
	if !tk.unordered {
		return tk.events
	}
	events := tk.events[:0]
	for i := range tk.records {
		r := &tk.records[i]
		if r.t == nil || r.t.Persistent || len(r.accesses) == 0 {
			continue
		}
		from, to := r.lifetime()
		events = append(events, usageEvent{from, r.size})
		if to != liveForever {
			events = append(events, usageEvent{to, -r.size})
		}
	}
	slices.SortFunc(events, func(a, b usageEvent) int { return cmp.Compare(a.at, b.at) })
	tk.events = events
	return events
}

// peakWindow returns the earliest and latest times at which usage exceeds
// the threshold. ok is false when the threshold is never exceeded.
func peakWindow(curve []usagePoint, threshold int64) (from, to sim.Time, ok bool) {
	first := true
	for i, p := range curve {
		if p.usage <= threshold {
			continue
		}
		if first {
			from = p.at
			first = false
		}
		// The excess region extends until usage drops back below the
		// threshold at the next point.
		to = p.at
		if i+1 < len(curve) {
			to = curve[i+1].at
		}
	}
	return from, to, !first
}
