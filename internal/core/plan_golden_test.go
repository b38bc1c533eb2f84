package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"capuchin/internal/core"
	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/models"
	"capuchin/internal/obs"
)

// update regenerates the plan-identity goldens instead of comparing:
//
//	go test ./internal/core -run PlanIdentity -update
var update = flag.Bool("update", false, "rewrite the plan-identity goldens")

// TestPlanIdentityGolden pins the Policy Maker's output byte for byte on
// two pressured cells of a 16 GiB P100: resnet50/b400 swaps and
// recomputes, bert/b128 recomputes heavily. It runs the measured
// iteration and one guided iteration and pins
//   - the SHA-256 of ExportPlan's JSON (every eviction, swap, in-trigger
//     and the whole measured access sequence);
//   - the plan-decision audit (plan, plan-swap, plan-recompute) in the
//     order the planner made it, with its Free-Time and MSPS inputs;
//   - the SHA-256 of every decision of the guided iteration, which covers
//     the swap-outs, prefetches, deferrals and feedback moves that guided
//     OnAccess derives from the plan.
//
// Tie-breaks show up here first: candidates rank by (Free-Time, ID),
// triggers by (back-access, ID), and Algorithm 1 keeps the first of equal
// candidates, so any change of iteration order moves a line.
func TestPlanIdentityGolden(t *testing.T) {
	for _, c := range []struct {
		model string
		batch int64
	}{{"resnet50", 400}, {"bert", 128}} {
		t.Run(fmt.Sprintf("%s_b%d", c.model, c.batch), func(t *testing.T) {
			got := planIdentity(t, c.model, c.batch)
			path := filepath.Join("testdata", fmt.Sprintf("plan_%s_b%d.golden", c.model, c.batch))
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with go test ./internal/core -run PlanIdentity -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("plan identity changed (%s):\n got:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// planIdentity renders one cell's plan-identity record.
func planIdentity(t *testing.T, model string, batch int64) []byte {
	t.Helper()
	spec, err := models.Get(model)
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(batch, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	pol := core.New(core.Options{})
	s, err := exec.NewSession(g, exec.Config{
		Device: hw.P100(), Policy: pol, CollectiveRecompute: true, Tracer: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	var plan bytes.Buffer
	if err := pol.ExportPlan(&plan); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	fmt.Fprintf(&out, "# %s/b%d on a 16 GiB P100: measured iteration, then one guided iteration\n", model, batch)
	fmt.Fprintf(&out, "export_plan sha256=%x bytes=%d\n", sha256.Sum256(plan.Bytes()), plan.Len())
	guided := sha256.New()
	var nGuided int
	var audit []obs.Decision
	for _, d := range col.Decisions() {
		switch {
		case d.Iter > 0:
			b, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			guided.Write(append(b, '\n'))
			nGuided++
		case d.Action == "plan" || d.Action == "plan-swap" || d.Action == "plan-recompute":
			audit = append(audit, d)
		}
	}
	fmt.Fprintf(&out, "guided_audit sha256=%x decisions=%d\n", guided.Sum(nil), nGuided)
	fmt.Fprintf(&out, "plan_audit decisions=%d\n", len(audit))
	for _, d := range audit {
		fmt.Fprintf(&out, "%s %s bytes=%d ft=%d back=%d msps=%.6g cands=%d\n",
			d.Action, d.Tensor, d.Bytes, int64(d.FreeTime), int64(d.BackAccess), d.MSPS, d.Candidates)
	}
	return out.Bytes()
}
