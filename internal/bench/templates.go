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
// Instantiate of it: a copy instead of a build. The set keeps its
// templates for as long as its owner holds it, and has one owner, one of:
//
//   - a serve Server, for its lifetime;
//   - one max-batch search, or one MaxBatchAll call shared by all its
//     searches;
//   - one fleet profiling setup;
//   - one cluster run, whose replicas instantiate one template;
//   - one dynamic run, where each new shape signature instantiates the
//     template of its sequence length.
//
// A Runner never owns one: a set that lived as long as a sweep's Runner
// would keep every template the sweep touched. A nil *Templates is valid
// and builds every graph from scratch, the cheapest path for a graph
// that is used once.
type Templates struct {
	mu    sync.Mutex
	byKey map[templateKey]*templateSlot
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

// templateSlot is a template built at most once.
type templateSlot struct {
	once sync.Once
	tmpl *graph.Template
	err  error
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
	t, err := ts.template(spec, mode, seq)
	if err != nil {
		return nil, err
	}
	return t.Instantiate(batch)
}

// template returns the set's template for (spec, mode, seq), building it
// on first use.
func (ts *Templates) template(spec models.Spec, mode exec.Mode, seq int64) (*graph.Template, error) {
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
		ts.builds.Add(1)
		s.err = errTemplatePanicked // replaced below unless the build panics
		s.tmpl, s.err = spec.Template(seq, buildOptions(mode))
	})
	return s.tmpl, s.err
}

// RunTraced is the package-level RunTraced with every graph the run
// needs taken from the set.
func (ts *Templates) RunTraced(cfg RunConfig, tr obs.Tracer) Result {
	res, _, _ := run(cfg, tr, ts)
	return res
}
