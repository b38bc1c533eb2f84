package dtr

import (
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
	"capuchin/internal/testutil"
)

func build(t *testing.T) *graph.Graph {
	return testutil.SmallCNN(t, 6, 64, graph.GraphModeOptions())
}

func tightRun(t *testing.T, mem int64, iters int) (*counted, []exec.IterStats) {
	t.Helper()
	g := build(t)
	p := &counted{Policy: New(g, testutil.Device(mem))}
	p.Audit = true
	s, err := exec.NewSession(g, exec.Config{
		Device: testutil.Device(mem),
		Policy: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	sts, err := s.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	return p, sts
}

func TestDTRMatchesOracle(t *testing.T) {
	p, sts := tightRun(t, 72*hw.MiB, 2)
	if p.evictions == 0 {
		t.Fatal("no evictions at 72 MiB; the run exercised nothing")
	}
	testutil.MatchesReference(t, "dtr", build(t), sts)
}

// TestDTRVictimIsMaximalH is the eviction-choice property: every audited
// eviction picked a currently-evictable candidate whose h score was
// maximal over the evictable set at choice time. The oracle recomputes the
// maximum independently from the recorded snapshot.
func TestDTRVictimIsMaximalH(t *testing.T) {
	p, _ := tightRun(t, 72*hw.MiB, 2)
	recs := p.Records()
	if len(recs) == 0 {
		t.Fatal("no audit records despite evictions")
	}
	for i, r := range recs {
		var maxH float64
		var chosenOK, sawEvictable bool
		for _, c := range r.Candidates {
			if !c.Evictable {
				continue
			}
			if !sawEvictable || c.H > maxH {
				maxH, sawEvictable = c.H, true
			}
			if c.ID == r.Chosen {
				chosenOK = true
			}
		}
		if !chosenOK {
			t.Fatalf("record %d: chose %q, which was not in the evictable set", i, r.Chosen)
		}
		if r.ChosenH != maxH {
			t.Errorf("record %d: chose h=%v but the evictable maximum was %v", i, r.ChosenH, maxH)
		}
	}
}

// syntheticPolicy builds a five-tensor ring with distinct base costs, no
// graph required: each tensor neighbours its two ring adjacents.
func syntheticPolicy() *Policy {
	p := &Policy{entries: make(map[string]*entry)}
	ids := []string{"a", "b", "c", "d", "e"}
	for i, id := range ids {
		p.entries[id] = &entry{
			t:         &tensor.Tensor{ID: id, Shape: tensor.Shape{4, 4}, DType: tensor.Float32},
			base:      sim.Time(10 * (i + 1)),
			projected: sim.Time(10 * (i + 1)),
		}
		p.order = append(p.order, id)
	}
	n := len(ids)
	for i, id := range ids {
		p.entries[id].neighbours = []string{ids[(i+n-1)%n], ids[(i+1)%n]}
	}
	return p
}

// TestDTRNeighbourCostRoundTrip is the propagation property: for every
// eviction order and every restoration order, restoring all evicted
// tensors returns every projected cost exactly to its base — the gave map
// makes restore an exact inverse even under interleaving.
func TestDTRNeighbourCostRoundTrip(t *testing.T) {
	perms := [][]string{
		{"a", "b", "c", "d", "e"},
		{"e", "d", "c", "b", "a"},
		{"c", "a", "e", "b", "d"},
		{"b", "d", "a", "e", "c"},
	}
	for _, evictOrder := range perms {
		for _, restoreOrder := range perms {
			p := syntheticPolicy()
			for _, id := range evictOrder {
				p.evict(p.entries[id])
			}
			for _, id := range restoreOrder {
				p.restore(p.entries[id])
			}
			for _, id := range p.order {
				e := p.entries[id]
				if e.projected != e.base {
					t.Fatalf("evict %v / restore %v: %s projected %v, want base %v",
						evictOrder, restoreOrder, id, e.projected, e.base)
				}
				if e.evicted || e.gave != nil {
					t.Fatalf("evict %v / restore %v: %s not fully restored", evictOrder, restoreOrder, id)
				}
			}
		}
	}
}

// TestDTRPartialRestoreInterleaving evicts overlapping neighbourhoods,
// restores a strict subset, evicts again, and checks the final full
// restoration still round-trips — the scenario where recording the exact
// amounts given (rather than recomputing them) matters.
func TestDTRPartialRestoreInterleaving(t *testing.T) {
	p := syntheticPolicy()
	p.evict(p.entries["a"])
	p.evict(p.entries["b"]) // b's projected already inflated by a
	p.restore(p.entries["a"])
	p.evict(p.entries["c"])
	p.restore(p.entries["c"])
	p.restore(p.entries["b"])
	for _, id := range p.order {
		e := p.entries[id]
		if e.projected != e.base {
			t.Errorf("%s: projected %v, want base %v", id, e.projected, e.base)
		}
	}
}

// TestDTRRematRestores runs tight enough that evicted tensors are touched
// again, and checks the policy observed the rematerializations.
func TestDTRRematRestores(t *testing.T) {
	p, _ := tightRun(t, 72*hw.MiB, 2)
	if p.remats == 0 {
		t.Error("no rematerializations observed; restore path untested at runtime")
	}
}

func TestDTRRegistered(t *testing.T) {
	spec, ok := exec.LookupPolicy("dtr")
	if !ok {
		t.Fatal("dtr not registered")
	}
	if spec.GraphAgnostic {
		t.Error("dtr keys costs to a graph; must not be graph-agnostic")
	}
	if !spec.Arena {
		t.Error("dtr should compete in the arena")
	}
	if _, err := spec.Build(exec.BuildContext{Device: hw.P100()}); err == nil {
		t.Error("nil-graph build should error")
	}
	g := build(t)
	pol, err := spec.Build(exec.BuildContext{Graph: g, Device: hw.P100()})
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != "dtr" {
		t.Errorf("built policy name %q", pol.Name())
	}
}
