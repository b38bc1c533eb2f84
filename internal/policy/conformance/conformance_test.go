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
	}
}

// TestEveryPolicyConforms is the cross-policy oracle of the arena: every
// registered policy × every scenario must either compute the exact same
// training step as the uncapped baseline or fail with an acceptable OOM —
// never diverge, never break residency, never see a non-resident access.
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
			t.Run(sc.Name+"/"+pol, func(t *testing.T) {
				res, err := Check(pol, sc, ref)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range res.Violations {
					t.Error(v)
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
