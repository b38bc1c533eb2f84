package core

import (
	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
)

// ReplayPlanAgainstReference runs g's measured iteration on dev under
// Capuchin, as the first iteration of a max-batch probe does, and
// replays its access stream into the Policy Maker and into the
// reference Policy Maker (diffPlanners). It returns how many tensors the
// plan selects, or the first difference between the two. An error from
// the iteration itself (an OOM the passive mode cannot resolve) is
// returned as is, with the iteration's flag set.
func ReplayPlanAgainstReference(g *graph.Graph, dev hw.DeviceSpec) (selections int, iterErr bool, err error) {
	rec := &recorder{Capuchin: New(Options{})}
	s, err := exec.NewSession(g, exec.Config{Device: dev, Policy: rec, CollectiveRecompute: true})
	if err != nil {
		return 0, false, err
	}
	if _, err := s.Run(1); err != nil {
		return 0, true, err
	}
	tk := newTracker(len(g.TensorList()), len(g.Nodes))
	for _, acc := range rec.accesses {
		tk.observe(acc)
	}
	tk.finish()
	n, err := diffPlanners(tk, rec.pl)
	return n, false, err
}

// newTracker returns a tracker sized for a graph of n tensors and nodes
// nodes.
func newTracker(n, nodes int) *tracker {
	tk := new(tracker)
	tk.reset(n, nodes)
	return tk
}
