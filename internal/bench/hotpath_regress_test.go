package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// writeHotpathFixture materializes an artifact + budget pair in a temp
// dir and returns the artifact path. mutate edits the decoded artifact
// before writing.
func writeHotpathFixture(t *testing.T, mutate func(map[string]any)) string {
	t.Helper()
	dir := t.TempDir()
	budgetPath := filepath.Join(dir, "alloc_budget.json")
	budget := map[string]any{
		"meta":    map[string]any{"tool": "test", "goVersion": "go1.24.0"},
		"budgets": map[string]float64{"capuchin.BenchmarkHotPathIteration": 1},
	}
	writeJSON(t, budgetPath, budget)

	top10 := make([]map[string]any, 10)
	for i := range top10 {
		top10[i] = map[string]any{"flat_pct": 1.0, "func": "f"}
	}
	art := map[string]any{
		"meta":         map[string]any{"tool": "test", "goVersion": "go1.24.0"},
		"alloc_budget": budgetPath,
		"matrix_serial": map[string]any{
			"before_ns_per_op": 105722479,
			"after_ns_per_op":  33976300,
			"speedup":          3.11,
		},
		"steady_iteration": map[string]any{
			"before_allocs_per_op": 8869,
			"after_allocs_per_op":  0,
		},
		"pprof": map[string]any{
			"cpu_top10_before":         top10,
			"cpu_top10_after":          top10,
			"alloc_space_top10_before": top10,
			"alloc_space_top10_after":  top10,
		},
	}
	if mutate != nil {
		mutate(art)
	}
	path := filepath.Join(dir, "BENCH_hotpath.json")
	writeJSON(t, path, art)
	return path
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRegressHotpathPasses(t *testing.T) {
	path := writeHotpathFixture(t, nil)
	regs, err := Regress(path, Options{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

// TestRegressHotpathRelativeBudget: a relative alloc_budget resolves
// against the artifact's directory, so the gate works from any working
// directory.
func TestRegressHotpathRelativeBudget(t *testing.T) {
	path := writeHotpathFixture(t, func(art map[string]any) {
		art["alloc_budget"] = "alloc_budget.json"
	})
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	regs, err := Regress(path, Options{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

func TestRegressHotpathSpeedupFloor(t *testing.T) {
	path := writeHotpathFixture(t, func(art map[string]any) {
		art["matrix_serial"] = map[string]any{
			"before_ns_per_op": 100, "after_ns_per_op": 50, "speedup": 2.0,
		}
	})
	regs, err := Regress(path, Options{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "matrix_serial_speedup" {
		t.Fatalf("want one speedup regression, got %v", regs)
	}
}

func TestRegressHotpathAllocsOverBudget(t *testing.T) {
	path := writeHotpathFixture(t, func(art map[string]any) {
		art["steady_iteration"] = map[string]any{
			"before_allocs_per_op": 8869, "after_allocs_per_op": 7,
		}
	})
	regs, err := Regress(path, Options{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "steady_allocs_per_op" {
		t.Fatalf("want one allocs regression, got %v", regs)
	}
}

func TestRegressHotpathInconsistentSpeedup(t *testing.T) {
	path := writeHotpathFixture(t, func(art map[string]any) {
		art["matrix_serial"] = map[string]any{
			"before_ns_per_op": 100, "after_ns_per_op": 50, "speedup": 3.5,
		}
	})
	if _, err := Regress(path, Options{}, 1, nil); err == nil {
		t.Fatal("inconsistent speedup did not error")
	}
}

func TestRegressHotpathShortPprofTop(t *testing.T) {
	path := writeHotpathFixture(t, func(art map[string]any) {
		art["pprof"].(map[string]any)["cpu_top10_after"] = []map[string]any{{"func": "f"}}
	})
	if _, err := Regress(path, Options{}, 1, nil); err == nil {
		t.Fatal("truncated pprof top did not error")
	}
}
