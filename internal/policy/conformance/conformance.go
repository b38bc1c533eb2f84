// Package conformance is the cross-policy oracle: every registered policy,
// whatever it does to tensor placement, must compute the training step
// exec.Reference computes and respect the executor's residency contract.
// The harness runs a policy over a scenario (model × memory cap × fault
// plan) and checks three invariants per iteration:
//
//  1. Fingerprint oracle: parameter and loss fingerprints match
//     exec.Reference, the graph's computation with no device at all.
//  2. Residency order: the session's residency invariant (pool bytes,
//     status machine, LRU bookkeeping) holds at every iteration boundary.
//  3. Access residency: no tensor is both evicted and accessed in the same
//     step — every non-dealloc access the policy observes is of a resident
//     tensor, because the executor materializes inputs before reporting.
//
// Running out of memory under a tight cap is an acceptable outcome (the
// policy declined to manage, it did not corrupt anything), as is a
// transfer that exhausted its fault retries. Everything else is a
// violation.
package conformance

import (
	"errors"
	"fmt"

	"capuchin/internal/exec"
	"capuchin/internal/fault"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/models"
	"capuchin/internal/tensor"
)

// Scenario is one cell of the conformance matrix.
type Scenario struct {
	Name  string
	Model string
	Batch int64
	// Memory is the device memory cap in bytes.
	Memory int64
	// Iterations to run (0 = 2).
	Iterations int
	// Faults is the deterministic fault plan; zero value injects nothing.
	Faults fault.Plan
}

// Result reports one policy × scenario check.
type Result struct {
	Policy   string
	Scenario string
	// Completed counts iterations that finished.
	Completed int
	// OOM and TransferFail record acceptable early exits.
	OOM          bool
	TransferFail bool
	// Violations lists contract breaches; empty means conformant.
	Violations []string
}

// Conformant reports whether the run satisfied the contract.
func (r Result) Conformant() bool { return len(r.Violations) == 0 }

// checker wraps a policy and verifies the access-residency invariant
// before delegating: a policy must never observe a live access to a
// tensor that is not on the device.
type checker struct {
	inner      exec.Policy
	violations []string
	// iter is the iteration in progress, for violation messages.
	iter int
}

func (c *checker) Name() string                    { return c.inner.Name() }
func (c *checker) TracksAccesses() bool            { return c.inner.TracksAccesses() }
func (c *checker) EndIteration(i int, e *exec.Env) { c.inner.EndIteration(i, e) }

func (c *checker) BeginIteration(i int, e *exec.Env) {
	c.iter = i
	c.inner.BeginIteration(i, e)
}

func (c *checker) OnAccess(acc exec.Access, env *exec.Env) {
	if acc.Kind != exec.Dealloc && !acc.Tensor.Resident() {
		c.violations = append(c.violations, fmt.Sprintf(
			"iter %d node %s: %s access to non-resident tensor %s (status %v)",
			c.iter, acc.NodeID(), acc.Kind, acc.Tensor.ID, acc.Tensor.Status))
	}
	c.inner.OnAccess(acc, env)
}

func (c *checker) OnOOM(need int64, env *exec.Env) ([]*tensor.Tensor, bool) {
	return c.inner.OnOOM(need, env)
}

// handlerChecker additionally forwards the OOMHandler hook, so wrapping
// does not silently demote a handler policy to the passive OnOOM path.
type handlerChecker struct {
	checker
	handler exec.OOMHandler
}

func (h *handlerChecker) HandleOOM(need int64, env *exec.Env) (bool, bool) {
	return h.handler.HandleOOM(need, env)
}

// wrap builds the checking wrapper appropriate to the inner policy.
func wrap(p exec.Policy) (exec.Policy, *checker) {
	if h, ok := p.(exec.OOMHandler); ok {
		hc := &handlerChecker{checker: checker{inner: p}, handler: h}
		return hc, &hc.checker
	}
	c := &checker{inner: p}
	return c, c
}

// buildGraph builds the scenario's graph; each is used by one session.
func buildGraph(sc Scenario) (*graph.Graph, error) {
	spec, err := models.Get(sc.Model)
	if err != nil {
		return nil, err
	}
	return spec.BuildShaped(sc.Batch, 0, graph.GraphModeOptions())
}

func iterations(sc Scenario) int {
	if sc.Iterations == 0 {
		return 2
	}
	return sc.Iterations
}

// Check runs one registered policy over the scenario against the
// scenario graph's exec.Reference. The returned error reports harness
// problems (unknown policy or model, session construction failure), not
// contract breaches — those land in Result.Violations.
func Check(policyName string, sc Scenario) (Result, error) {
	res := Result{Policy: policyName, Scenario: sc.Name}
	g, err := buildGraph(sc)
	if err != nil {
		return res, err
	}
	n := iterations(sc)
	ref := exec.Reference(g, n)
	ec := exec.Config{Device: hw.P100().WithMemory(sc.Memory), Faults: sc.Faults}
	if err := ec.UsePolicy(policyName, g); err != nil {
		return res, fmt.Errorf("conformance: %w", err)
	}
	var ck *checker
	ec.Policy, ck = wrap(ec.Policy)
	s, err := exec.NewSession(g, ec)
	if err != nil {
		return res, err
	}
	for i := 0; i < n; i++ {
		st, err := s.RunIteration()
		if err != nil {
			if errors.Is(err, exec.ErrIterationOOM) {
				res.OOM = true
				break
			}
			var terr *exec.TransferError
			if errors.As(err, &terr) {
				res.TransferFail = true
				break
			}
			res.Violations = append(res.Violations, fmt.Sprintf("iter %d: unacceptable failure: %v", i, err))
			break
		}
		res.Completed++
		if ierr := s.CheckResidencyInvariant(); ierr != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("iter %d: residency invariant: %v", i, ierr))
		}
		if st.ParamFingerprint != ref[i].Param {
			res.Violations = append(res.Violations, fmt.Sprintf("iter %d: parameter fingerprint diverged from exec.Reference", i))
		}
		if st.LossFingerprint != ref[i].Loss {
			res.Violations = append(res.Violations, fmt.Sprintf("iter %d: loss fingerprint diverged from exec.Reference", i))
		}
	}
	res.Violations = append(res.Violations, ck.violations...)
	return res, nil
}
