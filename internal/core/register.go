package core

import "capuchin/internal/exec"

// init registers the Capuchin variants. All are graph-agnostic: the policy
// is driven by the measured access stream and re-keys its plan per shape
// signature, so it follows dynamic schedules. Only the full system enters
// the arena; the other names are §6.2 ablation breakdowns of one system,
// not rivals.
func init() {
	variants := []struct {
		name  string
		doc   string
		opts  Options
		cr    bool
		arena bool
	}{
		{"capuchin", "Capuchin (§4): measured pass, hybrid swap/recompute plan, feedback adjustment", Options{}, true, true},
		{"capuchin-swap", "Capuchin ablation: swap only (ATP+DS+FA, Fig. 8a)", Options{SwapOnly: true}, false, false},
		{"capuchin-swap-nofa", "Capuchin ablation: swap only, no feedback adjustment (ATP+DS)", Options{SwapOnly: true, DisableFeedback: true}, false, false},
		{"capuchin-recomp", "Capuchin ablation: recompute only (ATP+CR, Fig. 8b)", Options{RecomputeOnly: true}, true, false},
		{"capuchin-recomp-nocr", "Capuchin ablation: recompute only, no collective recomputation (ATP)", Options{RecomputeOnly: true}, false, false},
	}
	for _, v := range variants {
		opts := v.opts
		exec.RegisterPolicy(exec.PolicySpec{
			Name:                v.name,
			Doc:                 v.doc,
			GraphAgnostic:       true,
			CollectiveRecompute: v.cr,
			Arena:               v.arena,
			Build: func(bc exec.BuildContext) (exec.Policy, error) {
				spare, _ := bc.Spare.(*Capuchin)
				return recycle(spare, opts), nil
			},
		})
	}
}
