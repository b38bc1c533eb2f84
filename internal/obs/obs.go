// Package obs is the simulator's observability layer: structured event
// tracing, policy decision auditing, memory profiling and a metrics
// registry.
//
// The executor and the policies report what they do through two narrow
// channels — Tracer.Emit for typed timeline events (kernel spans, PCIe
// transfer spans with queue-vs-wire time, allocation and eviction
// instants, fault injections, OOM-recovery loops) and Tracer.Decide for
// policy decisions with the inputs that drove them (Free-Time values,
// MSPS scores, candidate-set sizes). A nil Tracer disables everything:
// every emission site is guarded by a nil check, no event is constructed,
// and the virtual-time outcome of a run is identical with tracing on or
// off — tracing observes the simulation, it never participates in it.
//
// Downstream consumers are pure functions over the recorded data:
// WriteChromeTrace exports a Perfetto/chrome://tracing-compatible JSON
// timeline, BuildMemProfile reconstructs per-tensor residency and
// peak-memory attribution, and WriteExplain prints the full decision
// history of one tensor.
package obs

import (
	"sync"

	"capuchin/internal/sim"
)

// EventKind classifies a recorded event.
type EventKind uint8

// Event kinds.
const (
	// KindSpan is an interval on one timeline lane (kernel execution,
	// a PCIe transfer, an exposed stall).
	KindSpan EventKind = iota
	// KindInstant is a point event (a fault injection, an OOM, an
	// allocation or free with its memory counters sampled).
	KindInstant
	// KindCounter is a pure counter sample with no other payload.
	KindCounter
)

// Event is one typed observation from the executor. It is a flat struct
// so emission sites stay allocation-free apart from the collector append.
type Event struct {
	Kind EventKind
	// Cat is the event category: "kernel", "recompute", "dispatch",
	// "transfer", "stall", "alloc", "free", "fault", "oom".
	Cat string
	// Name is the display name (node ID, transfer label, fault kind).
	Name string
	// Lane is the timeline lane — a stream name ("compute", "h2d",
	// "d2h", "cpu") — or empty for process-wide events.
	Lane string
	// Group names the process-level grouping of the lane in multi-device
	// runs ("replica 0", "interconnect"). Empty means the single-device
	// default group, keeping single-device traces byte-identical.
	Group string
	// Start and End bound a span; instants set End == Start.
	Start, End sim.Time
	// Queued is, for transfer spans, the virtual time the transfer was
	// requested; Start-Queued is the time spent waiting for the lane
	// (queue time) and End-Start the wire time.
	Queued sim.Time
	// Iter is the iteration during which the event occurred.
	Iter int
	// Tensor and Node identify the subject when known.
	Tensor string
	Node   string
	// Bytes is the payload size (transfer or allocation size).
	Bytes int64
	// Used, Free and LargestFree sample the device allocator at the
	// event, and HostUsed the pinned host arena; they are filled on
	// memory events ("alloc", "free") and power the Perfetto
	// counter tracks and the fragmentation timeline.
	Used, Free, LargestFree, HostUsed int64
	// Detail carries a short qualifier: how a tensor became resident
	// ("produce", "prefetch", "ondemand", "recompute", "persistent"),
	// why it left ("dead", "evict", "swapout-complete", "fallback"),
	// or a stall/fault reason.
	Detail string
}

// Duration reports the span length (zero for instants).
func (ev Event) Duration() sim.Time { return ev.End - ev.Start }

// Decision is one audited policy decision: what was decided about which
// tensor, and the inputs that drove it. Every entry in the audit log is
// explainable after the fact — `capuchin-trace -explain <tensor>` prints
// a tensor's full history.
type Decision struct {
	// Iter and At locate the decision in the run.
	Iter int
	At   sim.Time
	// Policy is the deciding policy's name ("capuchin", "vdnn", ...).
	Policy string
	// Group names the replica that decided, in multi-device runs.
	Group string
	// Tensor is the subject tensor, when the decision concerns one.
	Tensor string
	// Action is the decision kind: "plan", "plan-swap",
	// "plan-recompute", "swap-out", "swap-out-failed", "prefetch",
	// "prefetch-deferred", "prefetch-failed", "release-recompute",
	// "fallback-recompute", "ondemand-swapin", "advance-trigger",
	// "oom-scan", "passive-evict". The fleet scheduler adds its
	// admission-controller kinds: "admit", "queue", "shed", "reject",
	// "preempt", "oom-kill", "requeue", "readmit-capped", "absorb-cap",
	// "complete".
	Action string
	// Class is the tenant priority class behind a fleet-scheduler
	// decision ("CRITICAL", "HIGH", "LOW"); empty for per-job policy
	// decisions.
	Class string
	// Reason is the human-readable justification.
	Reason string
	// FreeTime is the paper's Eq. 1 value (swap-in start minus swap-out
	// end) when the decision ranked candidates by it.
	FreeTime sim.Time
	// MSPS is Memory Saving Per Second (Eq. 2) when recomputation was
	// scored.
	MSPS float64
	// BackAccess is the distance to the tensor's back-access on the
	// measured timeline, when known.
	BackAccess sim.Time
	// Candidates is the size of the candidate set the decision chose
	// from, when applicable.
	Candidates int
	// Bytes is the tensor or allocation size at stake.
	Bytes int64
	// CommSlowdown and CommUntil record the comm-window input of a
	// comm-aware scheduling decision: the bandwidth degradation of the
	// pending all-reduce window the scheduler consulted and when that
	// window drains. Zero when no collective traffic was pending.
	CommSlowdown float64
	CommUntil    sim.Time
}

// Tracer receives events and decisions. Implementations must be safe for
// use from a single session goroutine; the Collector is additionally
// safe for concurrent readers.
//
// A nil Tracer means tracing is off: every call site in the executor
// checks for nil before constructing an event, so the disabled path costs
// one pointer comparison. A Tracer that also implements Repeater, as the
// Collector does, lets the executor skip iterations that repeat; any
// other makes it simulate every iteration.
type Tracer interface {
	// Emit records one timeline event.
	Emit(Event)
	// Decide records one policy decision in the audit log.
	Decide(Decision)
}

// Repeater is the optional interface of a Tracer that can record a run
// of repeated iterations itself. When an iteration repeats the one
// before it in every record but the clock and the iteration number, the
// executor calls Repeat instead of simulating it again; a Tracer without
// the method makes the executor simulate every iteration, so it is the
// full-simulation reference.
type Repeater interface {
	// Mark returns the position after the last record.
	Mark() Cursor
	// Repeat appends times copies of the window of records from from up
	// to to, which may end before the last record: the records after it
	// are not copied. Copy k (from 1) is the window with every absolute
	// virtual time moved on by k·period and every iteration number by k.
	Repeat(from, to Cursor, period sim.Time, times int)
}

// Collector is the in-memory Tracer: an append-only event log and
// decision audit log, each stored in fixed-size chunks so recording never
// copies what is already recorded. It also remembers how the two logs
// interleave, so AppendJSONL can replay them in emission order while a
// run is still recording.
type Collector struct {
	mu sync.Mutex
	// events holds the event records and strs the bytes of their strings;
	// neither holds a Go pointer, so a stored run's history is no GC work.
	events chunkLog[eventRec]
	strs   arena
	last   struct{ cat, name, lane, group, tensor, node, detail lastString }

	decisions chunkLog[Decision]
	// decAt's i-th record is the number of events recorded before the
	// i-th decision.
	decAt chunkLog[int]
	// wake is non-nil only while a reader waits for more records; the
	// next Emit or Decide closes and clears it.
	wake chan struct{}
}

var _ Tracer = (*Collector)(nil)

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Emit implements Tracer.
func (c *Collector) Emit(ev Event) {
	c.mu.Lock()
	a, l := &c.strs, &c.last
	name := a.put(&l.name, ev.Name, "", strRef{})
	c.events.append(eventRec{
		start: ev.Start, end: ev.End, queued: ev.Queued, iter: ev.Iter,
		bytes: ev.Bytes, used: ev.Used, free: ev.Free, largestFree: ev.LargestFree, hostUsed: ev.HostUsed,
		cat:    a.put(&l.cat, ev.Cat, ev.Name, name),
		name:   name,
		lane:   a.put(&l.lane, ev.Lane, ev.Name, name),
		group:  a.put(&l.group, ev.Group, ev.Name, name),
		tensor: a.put(&l.tensor, ev.Tensor, ev.Name, name),
		node:   a.put(&l.node, ev.Node, ev.Name, name),
		detail: a.put(&l.detail, ev.Detail, ev.Name, name),
		kind:   ev.Kind,
	})
	c.wakeReaders()
	c.mu.Unlock()
}

// Decide implements Tracer.
func (c *Collector) Decide(d Decision) {
	c.mu.Lock()
	c.decisions.append(d)
	c.decAt.append(c.events.n)
	c.wakeReaders()
	c.mu.Unlock()
}

var _ Repeater = (*Collector)(nil)

// Mark implements Repeater.
func (c *Collector) Mark() Cursor {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Cursor{events: c.events.n, decisions: c.decisions.n}
}

// Repeat implements Repeater. Copied event records reuse the window's
// string references, so repeating adds nothing to the arena, and each
// copy's decisions keep their places among its events, including those
// recorded after the window's last event. A zero Queued or CommUntil
// stays zero.
func (c *Collector) Repeat(from, to Cursor, period sim.Time, times int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := 1; k <= times; k++ {
		shift := sim.Time(k) * period
		base := c.events.n - from.events
		for i := from.events; i < to.events; i++ {
			r := c.events.at(i)
			r.start += shift
			r.end += shift
			if r.queued != 0 {
				r.queued += shift
			}
			r.iter += k
			c.events.append(r)
		}
		for i := from.decisions; i < to.decisions; i++ {
			d := c.decisions.at(i)
			d.At += shift
			if d.CommUntil != 0 {
				d.CommUntil += shift
			}
			d.Iter += k
			c.decisions.append(d)
			c.decAt.append(c.decAt.at(i) + base)
		}
	}
	c.wakeReaders()
}

// wakeReaders closes the wake channel if a reader armed it; c.mu is held.
func (c *Collector) wakeReaders() {
	if c.wake != nil {
		close(c.wake)
		c.wake = nil
	}
}

// Events returns the recorded events in emission order, in a new slice
// whose strings alias the log's arena.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	events, strs := c.events, c.strs
	c.mu.Unlock()
	out := make([]Event, events.n)
	for i := range out {
		out[i] = strs.event(events.at(i))
	}
	return out
}

// Decisions returns a copy of the audit log in emission order.
func (c *Collector) Decisions() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decisions.slice()
}

// GroupTracer wraps a Tracer and stamps a group name — "replica 0",
// "interconnect" — onto every event and decision that does not already
// carry one. The cluster runner hands each replica's session a
// GroupTracer over one shared Collector, so a multi-device timeline
// renders as one process per replica without the executor knowing about
// replicas at all.
type GroupTracer struct {
	T     Tracer
	Group string
}

var _ Tracer = GroupTracer{}

// Emit implements Tracer.
func (g GroupTracer) Emit(ev Event) {
	if ev.Group == "" {
		ev.Group = g.Group
	}
	g.T.Emit(ev)
}

// Decide implements Tracer.
func (g GroupTracer) Decide(d Decision) {
	if d.Group == "" {
		d.Group = g.Group
	}
	g.T.Decide(d)
}

// Len reports the number of recorded events.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events.n
}

// Bytes reports the memory the logs retain: the chunks of event records,
// the string arena and the chunks of decision records. It counts chunks,
// not records, so it is O(1); decisions' strings are not included.
func (c *Collector) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events.bytes() + c.strs.bytes() + c.decisions.bytes() + c.decAt.bytes()
}
