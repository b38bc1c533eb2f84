// Package trace derives the tensor-access tape from a run's event log and
// exports it, and stream spans, as TSV, powering the paper's timeline
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

// session is one executor session's access counts, indexed by tensor
// Idx, and the iteration they belong to (-1 before its first).
type session struct {
	counts []int
	iter   int
}

// Tape folds a single-device run's event and decision logs into the
// access stream the executor reported to its policy, in report order:
//   - each kernel span of node n reads n's inputs at the span's start,
//     then produces n's outputs at its end;
//   - each free instant with detail "dead" deallocates its tensor.
//
// Counts are kept per tensor: non-persistent counts restart each
// iteration, persistent ones run on. At subtracts the iteration's stall
// spans so far, which is the executor's timeline-reconstruction penalty.
//
// A dynamic run keeps a session per shape signature, and a shape-switch
// decision starts its target's session with the first kernel or stall
// span at or after the decision. A session whose iterations restart was
// rebuilt after an LRU eviction, so its counts start fresh. Signatures
// share topology, so g may be any of the run's graphs.
func Tape(g *graph.Graph, events []obs.Event, decisions []obs.Decision) []Event {
	nodes := make(map[string]*graph.Node, len(g.Nodes))
	for _, n := range g.Nodes {
		nodes[n.ID] = n
	}
	tensors := g.TensorList()
	fresh := func() *session { return &session{counts: make([]int, len(tensors)), iter: -1} }
	cur := fresh()
	sessions := map[string]*session{}
	var switches []obs.Decision
	for _, d := range decisions {
		if d.Action == exec.ShapeSwitch {
			switches = append(switches, d)
		}
	}

	var tape []Event
	var stall sim.Time // the current iteration's stall time so far
	access := func(iter int, t *tensor.Tensor, kind exec.AccessKind, raw sim.Time, node string) {
		if kind != exec.Dealloc {
			cur.counts[t.Idx]++
		}
		tape = append(tape, Event{Iter: iter, TensorID: t.ID, Count: cur.counts[t.Idx],
			At: raw - stall, Kind: kind, NodeID: node})
	}
	for _, ev := range events {
		span := ev.Cat == "kernel" || ev.Cat == "stall"
		if !span && (ev.Cat != "free" || ev.Detail != "dead") {
			continue
		}
		for span && len(switches) > 0 && ev.Start >= switches[0].At {
			prev, next, _ := exec.SwitchSigs(switches[0].Reason)
			switches = switches[1:]
			if len(sessions) == 0 {
				sessions[prev] = cur
			}
			s := sessions[next]
			if s == nil || ev.Iter <= s.iter {
				s = fresh()
				sessions[next] = s
			}
			cur, stall = s, 0
		}
		if ev.Iter != cur.iter {
			for i, t := range tensors {
				if !t.Persistent {
					cur.counts[i] = 0
				}
			}
			cur.iter, stall = ev.Iter, 0
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

// WriteSpansTSV writes stream spans (label, start, end) as TSV: the raw
// material of swap-overlap timelines like the paper's Figure 1.
func WriteSpansTSV(w io.Writer, stream string, spans []sim.Span) error {
	if _, err := fmt.Fprintln(w, "stream\tlabel\tstart_us\tend_us\tdur_us"); err != nil {
		return err
	}
	for _, sp := range spans {
		if _, err := fmt.Fprintf(w, "%s\t%s\t%.2f\t%.2f\t%.2f\n",
			stream, sp.Label, sp.Start.Microseconds(), sp.End.Microseconds(), sp.Duration().Microseconds()); err != nil {
			return err
		}
	}
	return nil
}
