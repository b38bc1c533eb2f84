package conformance

import (
	"strings"
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/fault"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/tensor"

	// Pull every policy registration into the suite: the matrix below
	// covers whatever is registered, so a new rival policy is conformance-
	// tested by adding its import here (and nowhere else).
	_ "capuchin/internal/core"
	_ "capuchin/internal/policy/checkpoint"
	_ "capuchin/internal/policy/chunk"
	_ "capuchin/internal/policy/dtr"
	_ "capuchin/internal/policy/superneurons"
	_ "capuchin/internal/policy/vdnn"
)

func scenarios() []Scenario {
	return []Scenario{
		{Name: "resnet50-fits", Model: "resnet50", Batch: 8, Memory: 64 * hw.GiB},
		{Name: "resnet50-tight", Model: "resnet50", Batch: 8, Memory: 2 * hw.GiB},
		{Name: "resnet50-tight-faulted", Model: "resnet50", Batch: 8, Memory: 2 * hw.GiB,
			Faults: fault.DefaultPlan(7)},
		{Name: "alexnet-tight", Model: "alexnet", Batch: 16, Memory: 1 * hw.GiB},
		// Replay cannot regenerate a multi-output producer's outputs, so a
		// policy must never release a gradient for recomputation. DTR
		// under this cap, and Capuchin falling back to recompute after an
		// aborted swap-out in its second iteration, both used to.
		{Name: "resnet50-gradient-pressure", Model: "resnet50", Batch: 32, Memory: 1 * hw.GiB,
			Iterations: 2},
		{Name: "resnet50-gradient-fallback-faulted", Model: "resnet50", Batch: 64, Memory: 3 * hw.GiB / 2,
			Iterations: 2, Faults: fault.DefaultPlan(7)},
	}
}

// knownAccessGaps lists the scenario/policy cells that still show a
// known executor defect: an input that is mid-swap-out when its consumer
// starts has its swap-out completed while the consumer allocates its
// outputs, so the kernel reads a tensor whose device buffer is already
// freed and the checker sees an access to a swapped-out tensor. Fixing
// it moves memory timelines in every golden, so it is tracked as an open
// item rather than fixed here. In these cells the access violations are
// expected, and required: once the defect is fixed the entry must go.
// Every other check still applies to them.
var knownAccessGaps = map[string]bool{
	"resnet50-gradient-pressure/capuchin":                   true,
	"resnet50-gradient-pressure/capuchin-swap":              true,
	"resnet50-gradient-pressure/capuchin-swap-nofa":         true,
	"resnet50-gradient-fallback-faulted/capuchin":           true,
	"resnet50-gradient-fallback-faulted/capuchin-swap":      true,
	"resnet50-gradient-fallback-faulted/capuchin-swap-nofa": true,
}

// TestEveryPolicyConforms is the cross-policy oracle of the arena: every
// registered policy × every scenario must either compute the exact same
// training step as the uncapped baseline or fail with an acceptable OOM —
// never diverge, never break residency, never see a non-resident access
// (outside knownAccessGaps).
func TestEveryPolicyConforms(t *testing.T) {
	policies := exec.PolicyNames()
	if len(policies) < 6 {
		t.Fatalf("only %d policies registered: %v", len(policies), policies)
	}
	for _, sc := range scenarios() {
		ref, err := Reference(sc)
		if err != nil {
			t.Fatalf("%s: reference run: %v", sc.Name, err)
		}
		for _, pol := range policies {
			cell := sc.Name + "/" + pol
			t.Run(cell, func(t *testing.T) {
				res, err := Check(pol, sc, ref)
				if err != nil {
					t.Fatal(err)
				}
				gapSeen := false
				for _, v := range res.Violations {
					if knownAccessGaps[cell] && strings.Contains(v, "access to non-resident tensor") {
						gapSeen = true
						continue
					}
					t.Error(v)
				}
				if knownAccessGaps[cell] && !gapSeen {
					t.Error("known access gap no longer shows; remove the cell from knownAccessGaps")
				}
				if res.Conformant() && res.Completed == 0 && !res.OOM && !res.TransferFail {
					t.Error("run neither completed an iteration nor failed acceptably")
				}
			})
		}
	}
}

func outTensor() *tensor.Tensor {
	return &tensor.Tensor{ID: "ghost", Shape: tensor.Shape{4}, DType: tensor.Float32, Status: tensor.Out}
}

// TestCheckerCatchesNonResidentAccess guards the oracle itself: a checker
// that never fires would pass any policy. Feed an access to a swapped-out
// tensor straight through the wrapper, no session needed.
func TestCheckerCatchesNonResidentAccess(t *testing.T) {
	inner := exec.NullPolicy{}
	wrapped, ck := wrap(inner)
	acc := exec.Access{Kind: exec.Read, Tensor: outTensor(), Node: &graph.Node{ID: "n1"}}
	wrapped.BeginIteration(1, nil)
	wrapped.OnAccess(acc, nil)
	if len(ck.violations) != 1 {
		t.Fatalf("checker recorded %d violations, want 1", len(ck.violations))
	}
	if v := ck.violations[0]; !strings.Contains(v, "iter 1 node n1") {
		t.Errorf("violation %q does not name the iteration and node", v)
	}
}

func TestWrapPreservesOOMHandler(t *testing.T) {
	spec, ok := exec.LookupPolicy("dtr")
	if !ok {
		t.Skip("dtr not registered")
	}
	sc := scenarios()[0]
	g, err := buildGraph(sc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Build(exec.BuildContext{Graph: g, Device: hw.P100()})
	if err != nil {
		t.Fatal(err)
	}
	wrapped, _ := wrap(p)
	if _, isHandler := wrapped.(exec.OOMHandler); !isHandler {
		t.Error("wrapping dtr lost its OOMHandler hook")
	}
	wrappedNull, _ := wrap(exec.NullPolicy{})
	if _, isHandler := wrappedNull.(exec.OOMHandler); isHandler {
		t.Error("wrapping NullPolicy invented an OOMHandler hook")
	}
}
