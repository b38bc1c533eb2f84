package checkpoint

import (
	"errors"

	"capuchin/internal/exec"
)

func init() {
	for _, r := range []struct {
		name string
		doc  string
		mode Mode
	}{
		{"openai-m", "gradient checkpointing, memory mode: keep ~sqrt(n) articulation points", Memory},
		{"openai-s", "gradient checkpointing, speed mode: keep conv/matmul outputs", Speed},
	} {
		mode := r.mode
		exec.RegisterPolicy(exec.PolicySpec{
			Name:                r.name,
			Doc:                 r.doc,
			CollectiveRecompute: true, // segment-wise recompute
			Arena:               true,
			Build: func(bc exec.BuildContext) (exec.Policy, error) {
				if bc.Graph == nil {
					return nil, errors.New("checkpoint: policy keys its schedule to one graph")
				}
				spare, _ := bc.Spare.(*Policy)
				return recycle(spare, bc.Graph, mode), nil
			},
		})
	}
}
