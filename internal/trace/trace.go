// Package trace derives the tensor-access tape and stream spans from a
// run's event log and exports them as TSV, powering the paper's timeline
// figures (the vDNN swap timeline of Fig. 1 and the cross-iteration access
// regularity of Fig. 3).
package trace

import (
	"fmt"
	"io"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// Event is one tensor access on the tape.
type Event struct {
	Iter     int
	TensorID string
	// Count is the tensor's access count after this access (a Dealloc
	// repeats the count of the access before it).
	Count int
	// At is the access time on the stall-free timeline of §5.2: the
	// run's clock minus the iteration's stall time so far.
	At     sim.Time
	Kind   exec.AccessKind
	NodeID string
}

// sessions assigns a run's span events, in emission order, to the
// executor sessions that emitted them, numbered in the order they start.
// A static run has one session. A dynamic run keeps a session per shape
// signature, and a shape-switch decision starts its target's session
// with the first span at or after the decision. A session whose
// iterations restart was rebuilt after an LRU eviction, so it starts a
// new number.
type sessions struct {
	switches []obs.Decision
	bySig    map[string]int
	iters    []int // each session's iteration, -1 before its first
	cur      int
}

func newSessions(decisions []obs.Decision) *sessions {
	w := &sessions{bySig: map[string]int{}, iters: []int{-1}}
	for _, d := range decisions {
		if d.Action == exec.ShapeSwitch {
			w.switches = append(w.switches, d)
		}
	}
	return w
}

// enter moves to the session of span ev and reports whether it switched.
func (w *sessions) enter(ev obs.Event) bool {
	switched := false
	for len(w.switches) > 0 && ev.Start >= w.switches[0].At {
		prev, next, _ := exec.SwitchSigs(w.switches[0].Reason)
		w.switches = w.switches[1:]
		if len(w.bySig) == 0 {
			w.bySig[prev] = w.cur
		}
		i, ok := w.bySig[next]
		if !ok || ev.Iter <= w.iters[i] {
			i = len(w.iters)
			w.iters = append(w.iters, -1)
			w.bySig[next] = i
		}
		w.cur, switched = i, true
	}
	return switched
}

// newIter records ev's iteration as the current session's and reports
// whether ev starts it.
func (w *sessions) newIter(ev obs.Event) bool {
	if ev.Iter == w.iters[w.cur] {
		return false
	}
	w.iters[w.cur] = ev.Iter
	return true
}

// Tape folds a single-device run's event and decision logs into the
// access stream the executor reported to its policy, in report order:
//   - each kernel span of node n reads n's inputs at the span's start,
//     then produces n's outputs at its end;
//   - each free instant with detail "dead" deallocates its tensor.
//
// Counts are kept per tensor and session: non-persistent counts restart
// each iteration, persistent ones run on. At subtracts the iteration's
// stall spans so far, which is the executor's timeline-reconstruction
// penalty. Kernel and stall spans move the fold between a dynamic run's
// sessions. Signatures share topology, so g may be any of the run's
// graphs.
func Tape(g *graph.Graph, events []obs.Event, decisions []obs.Decision) []Event {
	nodes := make(map[string]*graph.Node, len(g.Nodes))
	for _, n := range g.Nodes {
		nodes[n.ID] = n
	}
	tensors := g.TensorList()
	w := newSessions(decisions)
	var counts [][]int // per session, indexed by tensor Idx

	var cur []int // the current session's counts
	var tape []Event
	var stall sim.Time // the current iteration's stall time so far
	access := func(iter int, t *tensor.Tensor, kind exec.AccessKind, raw sim.Time, node string) {
		if kind != exec.Dealloc {
			cur[t.Idx]++
		}
		tape = append(tape, Event{Iter: iter, TensorID: t.ID, Count: cur[t.Idx],
			At: raw - stall, Kind: kind, NodeID: node})
	}
	for _, ev := range events {
		span := ev.Cat == "kernel" || ev.Cat == "stall"
		if !span && (ev.Cat != "free" || ev.Detail != "dead") {
			continue
		}
		if span && w.enter(ev) {
			stall = 0
		}
		for len(counts) <= w.cur {
			counts = append(counts, make([]int, len(tensors)))
		}
		cur = counts[w.cur]
		if w.newIter(ev) {
			for i, t := range tensors {
				if !t.Persistent {
					cur[i] = 0
				}
			}
			stall = 0
		}
		switch ev.Cat {
		case "stall":
			stall += ev.Duration()
		case "kernel":
			n := nodes[ev.Node]
			for _, t := range n.Inputs {
				access(ev.Iter, t, exec.Read, ev.Start, n.ID)
			}
			for _, t := range n.Outputs {
				access(ev.Iter, t, exec.Produce, ev.End, n.ID)
			}
		default:
			access(ev.Iter, g.Tensor(ev.Tensor), exec.Dealloc, ev.Start, "")
		}
	}
	return tape
}

// Spans folds a run's event and decision logs into the spans the named
// stream ran, in run order: the span events on its lane that are not
// stalls. A multi-device log keeps replica 0's, and a dynamic run the
// spans of the session it ended on.
func Spans(events []obs.Event, decisions []obs.Decision, stream string) []obs.Event {
	w := newSessions(decisions)
	spans := make([][]obs.Event, 1) // per session
	for _, ev := range events {
		if ev.Kind != obs.KindSpan || ev.Group != "" && ev.Group != "replica 0" {
			continue
		}
		w.enter(ev)
		w.newIter(ev)
		for len(spans) <= w.cur {
			spans = append(spans, nil)
		}
		if ev.Lane == stream && ev.Cat != "stall" {
			spans[w.cur] = append(spans[w.cur], ev)
		}
	}
	return spans[w.cur]
}

// WriteTSV writes a tape as tab-separated values.
func WriteTSV(w io.Writer, tape []Event) error {
	if _, err := fmt.Fprintln(w, "iter\ttensor\tcount\ttime_us\tkind\tnode"); err != nil {
		return err
	}
	for _, e := range tape {
		if _, err := fmt.Fprintf(w, "%d\t%s\t%d\t%.2f\t%s\t%s\n",
			e.Iter, e.TensorID, e.Count, e.At.Microseconds(), e.Kind, e.NodeID); err != nil {
			return err
		}
	}
	return nil
}

// WriteSpansTSV writes a stream's spans (name, start, end), as Spans
// folds them, as TSV: the raw material of swap-overlap timelines like
// the paper's Figure 1.
func WriteSpansTSV(w io.Writer, stream string, spans []obs.Event) error {
	if _, err := fmt.Fprintln(w, "stream\tlabel\tstart_us\tend_us\tdur_us"); err != nil {
		return err
	}
	for _, sp := range spans {
		if _, err := fmt.Fprintf(w, "%s\t%s\t%.2f\t%.2f\t%.2f\n",
			stream, sp.Name, sp.Start.Microseconds(), sp.End.Microseconds(), sp.Duration().Microseconds()); err != nil {
			return err
		}
	}
	return nil
}
