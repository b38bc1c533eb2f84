package exec

import (
	"capuchin/internal/bufs"
	"capuchin/internal/graph"
	"capuchin/internal/memory"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// This file is the executor's observability surface. Every helper is a
// no-op without an attached tracer, and none of them touches simulation
// state: with Config.Tracer nil the run is byte-identical to an untraced
// one.

// decide records a decision in the audit log, stamping the deciding
// policy, the current virtual time and the iteration when unset.
func (s *Session) decide(d obs.Decision) {
	if s.tr == nil {
		return
	}
	if d.Policy == "" {
		d.Policy = s.policy.Name()
	}
	if d.At == 0 {
		d.At = s.now()
	}
	d.Iter = s.iter
	s.tr.Decide(d)
}

// memEvent emits an alloc/free instant for tensor t (nil for a kernel
// workspace) with the device allocator and host arena sampled, feeding
// the memory profiler and the Perfetto counter tracks. l is labelAlloc or
// labelFree. Callers must hold s.tr != nil.
func (s *Session) memEvent(l labelKind, detail string, t *tensor.Tensor, bytes int64, at sim.Time) {
	snap := memory.Snap(s.pool)
	id := ""
	if t != nil {
		id = t.ID
	}
	s.tr.Emit(obs.Event{
		Kind: obs.KindInstant, Cat: l.word(), Name: s.tensorName(l, t),
		Tensor: id, Detail: detail, Start: at, End: at, Iter: s.iter,
		Bytes:       bytes,
		Used:        snap.Used,
		Free:        snap.Free,
		LargestFree: snap.LargestFree,
		HostUsed:    s.host.Used(),
	})
}

// labelKind is a kind of name a traced run shows: a word, a space and a
// tensor or node ID, as in "alloc conv1:0" or "recompute conv1".
type labelKind uint8

const (
	// Tensor labels, cached by tensor Idx.
	labelAlloc labelKind = iota
	labelFree
	labelSwapIn
	labelSwapOut
	labelOnDemand
	labelPassive
	// Node labels, cached by node Pos.
	labelDispatch
	labelRecompute
	numLabels
)

var labelPrefixes = [numLabels]string{"alloc ", "free ", "swapin ", "swapout ", "ondemand ", "passive ", "dispatch ", "recompute "}

// word returns the label's word without the trailing space.
func (l labelKind) word() string {
	p := labelPrefixes[l]
	return p[:len(p)-1]
}

// name returns l's name for id from slot i of its table in s.names,
// which is n long. The table is sized on the label's first use (a
// recycled session keeps its backing array) and the name built on its
// first use, so a traced run concatenates each name once per session
// instead of once per event.
func (s *Session) name(l labelKind, i, n int, id string) string {
	tab := s.names[l]
	if len(tab) != n {
		tab = bufs.Resized(tab, n)
		s.names[l] = tab
	}
	if tab[i] == "" {
		tab[i] = labelPrefixes[l] + id
	}
	return tab[i]
}

// tensorName returns l's name for t; a nil t, a workspace, gets the bare
// prefix ("alloc ").
func (s *Session) tensorName(l labelKind, t *tensor.Tensor) string {
	if t == nil {
		return labelPrefixes[l]
	}
	return s.name(l, int(t.Idx), len(s.tlist), t.ID)
}

// nodeName returns l's name for node n's dispatch or recompute span.
func (s *Session) nodeName(l labelKind, n *graph.Node) string {
	return s.name(l, n.Pos, len(s.g.Nodes), n.ID)
}

// laneInstant emits a point event on a stream lane (fault injections, OOM
// markers). Callers must hold s.tr != nil.
func (s *Session) laneInstant(cat, name, lane, detail string, at sim.Time) {
	s.tr.Emit(obs.Event{
		Kind: obs.KindInstant, Cat: cat, Name: name, Lane: lane,
		Detail: detail, Start: at, End: at, Iter: s.iter,
	})
}

// stallTo advances the compute stream to at, charging the wait to the
// iteration's stall time and to the timeline-reconstruction penalty
// (§5.2), and traces it as a stall span. It replaces the hand-rolled
// stall accounting previously duplicated at every synchronization site.
func (s *Session) stallTo(at sim.Time, reason string) {
	now := s.now()
	if at <= now {
		return
	}
	d := at - now
	s.stats.StallTime += d
	s.penalty += d
	s.compute.AdvanceTo(at)
	if s.tr != nil {
		s.tr.Emit(obs.Event{
			Kind: obs.KindSpan, Cat: "stall", Name: "stall:" + reason,
			Lane: "compute", Start: now, End: at, Iter: s.iter, Detail: reason,
		})
	}
}

// exposedStall charges compute time lost waiting on transfer dependencies
// that Run already absorbed (the stream jumped from preRun to start).
func (s *Session) exposedStall(preRun, start sim.Time) {
	exposed := start - preRun
	if exposed <= 0 {
		return
	}
	s.stats.StallTime += exposed
	s.penalty += exposed
	if s.tr != nil {
		s.tr.Emit(obs.Event{
			Kind: obs.KindSpan, Cat: "stall", Name: "stall:input-wait",
			Lane: "compute", Start: preRun, End: start, Iter: s.iter, Detail: "input-wait",
		})
	}
}
