package bench

import (
	"errors"
	"sync"
	"sync/atomic"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/models"
	"capuchin/internal/obs"
)

// Templates is a set of graph templates keyed by (model, mode, seq). Each
// template is built on first use, once, however many goroutines ask for
// it at the same time, and every later graph of that key is an
// Instantiate of it: a copy instead of a build. A set whose from is set
// takes its templates from that set instead of building them, and keeps
// spares of its own.
//
// Each template of a set also keeps at most one spare probe: the graph
// instance and exec.Session of the last static single-device cell of
// that template that handed them back, and the policy the parked session
// kept. run hands them back after every normal return of such a cell,
// so the next cell of the template refills the spare instead of
// allocating it (graph.Template.Instantiate, exec.RecycleSession,
// exec.BuildContext.Spare). A policy refills only a spare of its own
// kind and builds anew after any other system's cell: a Capuchin cell
// reuses the tracker, planner and plan arrays of a Capuchin spare, and
// a vDNN or OpenAI checkpointing cell keeps the whole static schedule
// of a spare of its own mode, which depends on the template's topology
// only. A max-batch search probes one system, so every probe after its
// first refills its own system's policy. A cell takes the spare for its
// whole run, so concurrent cells of one template never share it; the
// others allocate.
// RunLive never hands its session back, and cluster and dynamic runs
// never take a spare. A cell that panics hands nothing back, so the next
// cell allocates afresh.
//
// The set keeps its templates and spares for as long as its owner holds
// it, and has one owner, one of:
//
//   - a serve Server, for its lifetime;
//   - one max-batch search, for its spares, taking its templates from
//     a source that a Runner holds while any of its searches is in
//     flight, or building them for the package-level MaxBatch;
//   - one fleet profiling setup;
//   - one cluster run, whose replicas instantiate one template;
//   - one dynamic run, where each new shape signature instantiates the
//     template of its sequence length.
//
// A nil *Templates is valid and builds every graph from scratch, the
// cheapest path for a graph that is used once.
type Templates struct {
	mu    sync.Mutex
	byKey map[templateKey]*templateSlot
	// from is the set this one takes its templates from, or nil.
	from *Templates
	// builds counts the templates the set has built.
	builds atomic.Int64
}

// templateKey names one template: seq is 0 for the default shape,
// whatever length the request spelled it with.
type templateKey struct {
	model string
	mode  exec.Mode
	seq   int64
}

// templateSlot is a template built at most once, with at most one spare
// probe: the graph instance and session of the last static cell that
// handed them back, which the next cell of the template refills.
type templateSlot struct {
	once sync.Once
	tmpl *graph.Template
	err  error

	mu    sync.Mutex
	spare probe
}

// probe is the storage of one static single-device cell: its graph and,
// once the cell has run, its session with the policy it parked. slot is the template slot the
// graph was instantiated from, nil for a graph built from scratch.
type probe struct {
	slot *templateSlot
	g    *graph.Graph
	s    *exec.Session
}

// errTemplatePanicked is what a template whose build panicked reports to
// everyone who asks for it afterwards.
var errTemplatePanicked = errors.New("bench: building the graph template panicked")

// NewTemplates returns an empty set.
func NewTemplates() *Templates {
	return &Templates{byKey: make(map[templateKey]*templateSlot)}
}

// Graph returns spec's training graph in mode at batch and at sequence
// length seq (0 = the model's default shape, as for Spec.BuildShaped):
// instantiated from the set's template for (model, mode, seq), or built
// from scratch when ts is nil.
func (ts *Templates) Graph(spec models.Spec, mode exec.Mode, batch, seq int64) (*graph.Graph, error) {
	if ts == nil {
		return spec.BuildShaped(batch, seq, buildOptions(mode))
	}
	s, err := ts.slot(spec, mode, seq)
	if err != nil {
		return nil, err
	}
	return s.tmpl.Instantiate(batch, nil)
}

// probe returns spec's training graph in mode at batch for one static
// cell, refilled into the slot's spare when there is one, together with
// the spare's session for exec.RecycleSession (nil without a spare). The
// slot's spare is the caller's until it hands it back with recycle. With
// a nil ts the graph is built from scratch.
func (ts *Templates) probe(spec models.Spec, mode exec.Mode, batch int64) (probe, error) {
	if ts == nil {
		g, err := spec.BuildShaped(batch, 0, buildOptions(mode))
		return probe{g: g}, err
	}
	slot, err := ts.slot(spec, mode, 0)
	if err != nil {
		return probe{}, err
	}
	slot.mu.Lock()
	p := slot.spare
	slot.spare = probe{}
	slot.mu.Unlock()
	p.slot = slot
	p.g, err = slot.tmpl.Instantiate(batch, p.g)
	return p, err
}

// recycle parks p's session and makes p its slot's spare, replacing any
// spare another cell handed back meanwhile. p must come from a set.
func (p probe) recycle() {
	if p.s != nil {
		p.s.Park()
	}
	p.slot.mu.Lock()
	p.slot.spare = p
	p.slot.mu.Unlock()
}

// slot returns the set's slot for (spec, mode, seq), building its
// template on first use, or taking it from ts.from.
func (ts *Templates) slot(spec models.Spec, mode exec.Mode, seq int64) (*templateSlot, error) {
	// BuildShaped ignores seq without a sequence axis, and the default
	// length is the default shape, so those requests share one template.
	if spec.BuildSeq == nil || seq == spec.DefaultSeq {
		seq = 0
	}
	k := templateKey{model: spec.Name, mode: mode, seq: seq}
	ts.mu.Lock()
	s := ts.byKey[k]
	if s == nil {
		s = &templateSlot{}
		ts.byKey[k] = s
	}
	ts.mu.Unlock()
	s.once.Do(func() {
		s.err = errTemplatePanicked // replaced below unless the build panics
		if ts.from != nil {
			src, err := ts.from.slot(spec, mode, seq)
			s.tmpl, s.err = src.tmpl, err
			return
		}
		ts.builds.Add(1)
		s.tmpl, s.err = spec.Template(seq, buildOptions(mode))
	})
	return s, s.err
}

// RunTraced is the package-level RunTraced with every graph the run
// needs taken from the set.
func (ts *Templates) RunTraced(cfg RunConfig, tr obs.Tracer) Result {
	res, _, _ := run(cfg, tr, ts)
	return res
}
