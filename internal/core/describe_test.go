package core

import (
	"strings"
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/hw"
)

func TestDescribePlan(t *testing.T) {
	c := New(Options{})
	if c.DescribePlan() != nil {
		t.Error("plan described before planning")
	}
	var sb strings.Builder
	if err := c.WritePlan(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no plan") {
		t.Errorf("pre-plan output = %q", sb.String())
	}

	s, err := exec.NewSession(testCNN(t), exec.Config{
		Device:              device(48 * hw.MiB),
		Policy:              c,
		CollectiveRecompute: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	entries := c.DescribePlan()
	if len(entries) == 0 {
		t.Fatal("empty plan under pressure")
	}
	// Sorted by size descending; sane fields.
	for i, e := range entries {
		if i > 0 && e.Bytes > entries[i-1].Bytes {
			t.Error("entries not sorted by size")
		}
		if e.Action != "swap" && e.Action != "recompute" {
			t.Errorf("bad action %q", e.Action)
		}
		if e.EvictAtCount < 1 {
			t.Errorf("bad evict count %d", e.EvictAtCount)
		}
		if e.Action == "swap" {
			if e.BackAtCount <= e.EvictAtCount {
				t.Errorf("%s: back %d <= evict %d", e.TensorID, e.BackAtCount, e.EvictAtCount)
			}
			if e.Gap <= 0 {
				t.Errorf("%s: non-positive gap", e.TensorID)
			}
		}
	}
	sb.Reset()
	if err := c.WritePlan(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), entries[0].TensorID) {
		t.Error("WritePlan missing largest entry")
	}
}

func TestPlanDeterminism(t *testing.T) {
	run := func() []PlanEntry {
		c := New(Options{})
		s, err := exec.NewSession(testCNN(t), exec.Config{
			Device:              device(48 * hw.MiB),
			Policy:              c,
			CollectiveRecompute: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(2); err != nil {
			t.Fatal(err)
		}
		return c.DescribePlan()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("plan sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan entry %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
