// Package trace records tensor-access and stream-span events from
// simulation runs and exports them as TSV, powering the paper's timeline
// figures (the vDNN swap timeline of Fig. 1 and the cross-iteration access
// regularity of Fig. 3).
package trace

import (
	"fmt"
	"io"

	"capuchin/internal/exec"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// Event is one recorded tensor access.
type Event struct {
	Iter     int
	TensorID string
	Count    int
	At       sim.Time
	Kind     exec.AccessKind
	NodeID   string
}

// Recorder is an exec.Policy decorator that records the access stream
// while delegating every decision to the wrapped policy.
type Recorder struct {
	// Inner is the decorated policy; nil means exec.NullPolicy.
	Inner exec.Policy
	// Filter selects which accesses to record; nil records everything.
	Filter func(acc exec.Access) bool
	// Tracer, when set, additionally receives each recorded access as an
	// obs instant (Cat "access") so access markers land on the same
	// timeline as the executor's kernel and transfer spans. The Filter
	// gates forwarding too — record-everything tracers would drown the
	// Chrome export in per-access instants.
	Tracer obs.Tracer

	events []Event
}

var _ exec.Policy = (*Recorder)(nil)

// NewRecorder wraps a policy with access recording.
func NewRecorder(inner exec.Policy, filter func(exec.Access) bool) *Recorder {
	if inner == nil {
		inner = exec.NullPolicy{}
	}
	return &Recorder{Inner: inner, Filter: filter}
}

// Policy returns the policy a session should run: the Recorder, with
// the inner policy's exec.OOMHandler hook forwarded when it has one, so
// recording never demotes a handler policy (h-DTR) to the passive OnOOM
// path.
func (r *Recorder) Policy() exec.Policy {
	if h, ok := r.Inner.(exec.OOMHandler); ok {
		return handlerRecorder{r, h}
	}
	return r
}

// handlerRecorder is a Recorder that forwards its inner policy's
// exec.OOMHandler hook.
type handlerRecorder struct {
	*Recorder
	exec.OOMHandler
}

// Name implements exec.Policy.
func (r *Recorder) Name() string { return r.Inner.Name() + "+trace" }

// BeginIteration implements exec.Policy.
func (r *Recorder) BeginIteration(iter int, env *exec.Env) { r.Inner.BeginIteration(iter, env) }

// OnAccess implements exec.Policy.
func (r *Recorder) OnAccess(acc exec.Access, env *exec.Env) {
	if r.Filter == nil || r.Filter(acc) {
		iter := env.Iteration()
		r.events = append(r.events, Event{
			Iter:     iter,
			TensorID: acc.Tensor.ID,
			Count:    acc.Count,
			At:       acc.At,
			Kind:     acc.Kind,
			NodeID:   acc.NodeID(),
		})
		if r.Tracer != nil {
			r.Tracer.Emit(obs.Event{
				Kind:   obs.KindInstant,
				Cat:    "access",
				Name:   acc.Kind.String() + " " + acc.Tensor.ID,
				Lane:   "cpu",
				Start:  acc.Raw,
				Iter:   iter,
				Tensor: acc.Tensor.ID,
				Node:   acc.NodeID(),
				Bytes:  acc.Tensor.Bytes(),
				Detail: fmt.Sprintf("access #%d", acc.Count),
			})
		}
	}
	r.Inner.OnAccess(acc, env)
}

// OnOOM implements exec.Policy.
func (r *Recorder) OnOOM(need int64, env *exec.Env) ([]*tensor.Tensor, bool) {
	return r.Inner.OnOOM(need, env)
}

// EndIteration implements exec.Policy.
func (r *Recorder) EndIteration(iter int, env *exec.Env) { r.Inner.EndIteration(iter, env) }

// TracksAccesses implements exec.Policy.
func (r *Recorder) TracksAccesses() bool { return r.Inner.TracksAccesses() }

// Events returns the recorded events.
func (r *Recorder) Events() []Event { return r.events }

// Reset clears the recording.
func (r *Recorder) Reset() { r.events = nil }

// WriteTSV writes the recorded events as tab-separated values.
func (r *Recorder) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "iter\ttensor\tcount\ttime_us\tkind\tnode"); err != nil {
		return err
	}
	for _, e := range r.events {
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
