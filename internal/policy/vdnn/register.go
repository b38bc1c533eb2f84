package vdnn

import (
	"errors"

	"capuchin/internal/exec"
)

func init() {
	exec.RegisterPolicy(exec.PolicySpec{
		Name:        "vdnn",
		Doc:         "vDNN (MICRO'16): layer-wise conv-input offload with one-layer-ahead prefetch",
		CoupledSwap: true, // layer-wise synchronization (§3.1)
		Arena:       true,
		Build: func(bc exec.BuildContext) (exec.Policy, error) {
			if bc.Graph == nil {
				return nil, errors.New("vdnn: policy keys its schedule to one graph")
			}
			spare, _ := bc.Spare.(*Policy)
			return recycle(spare, bc.Graph, ConvOnly), nil
		},
	})
}
