package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// writeServeFixture writes a clean, internally consistent serve
// artifact, applies mutate, and returns its path.
func writeServeFixture(t *testing.T, mutate func(map[string]any)) string {
	t.Helper()
	art := map[string]any{
		"meta": NewRunMeta("capuchin-serve -selftest", 1, false,
			"clients=1000", "requests=3000"),
		"load": map[string]any{
			"clients": 1000, "requests": 3000,
			"total": 3000, "ok": 3000, "shed": 0, "errors": 0,
			"accepted": 12, "deduped": 2988,
			"durationMillis": 1500.0, "rps": 2000.0,
			"p50Millis": 20.0, "p99Millis": 90.0, "maxMillis": 120.0,
			"shedRatePct": 0.0, "dedupRatePct": 99.6,
		},
		"byte_identity": map[string]any{"config": "alexnet/b2/tf-ori", "identical": true},
		"drain": map[string]any{
			"inFlightAtDrain": 2, "completedAfterDrain": 2, "dropped": 0,
			"rejectedDuringDrain": 1, "shedObserved": true,
		},
	}
	if mutate != nil {
		mutate(art)
	}
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "serve.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRegressServeCleanFixture(t *testing.T) {
	regs, err := Regress(writeServeFixture(t, nil), Options{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("clean fixture flagged: %v", regs)
	}
}

// TestRegressServeRealBaseline gates the checked-in artifact itself:
// whatever ships at the repo root must pass its own gate.
func TestRegressServeRealBaseline(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_serve.json")
	if _, err := os.Stat(path); err != nil {
		t.Skipf("no checked-in BENCH_serve.json: %v", err)
	}
	regs, err := Regress(path, Options{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("checked-in baseline regressed against itself: %v", regs)
	}
}

// TestRegressServeDegradedFixture pins the checked-in degraded
// baseline: every acceptance floor it violates must flag, so `make
// regress-smoke` can prove the serve gate fails when it should.
func TestRegressServeDegradedFixture(t *testing.T) {
	regs, err := Regress(filepath.Join("testdata", "serve_regressed_baseline.json"), Options{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"clients_floor": true, "request_errors": true, "byte_identity": true,
		"drain_dropped": true, "drain_rejects_new_work": true, "backpressure_observed": true,
	}
	got := map[string]bool{}
	for _, r := range regs {
		if r.Scenario != "serve" {
			t.Errorf("unexpected scenario in %v", r)
		}
		got[r.Metric] = true
	}
	for m := range want {
		if !got[m] {
			t.Errorf("metric %s did not flag (got %v)", m, regs)
		}
	}
	if len(regs) != len(want) {
		t.Errorf("flagged %d metrics, want %d: %v", len(regs), len(want), regs)
	}
}

func TestRegressServeQuickWaivesClientFloor(t *testing.T) {
	path := writeServeFixture(t, func(art map[string]any) {
		m := art["meta"].(RunMeta)
		m.Quick = true
		art["meta"] = m
		art["load"].(map[string]any)["clients"] = 64
	})
	regs, err := Regress(path, Options{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("quick run flagged the client floor: %v", regs)
	}

	// Without the quick marker the same fleet size is a regression.
	path = writeServeFixture(t, func(art map[string]any) {
		art["load"].(map[string]any)["clients"] = 64
	})
	regs, err = Regress(path, Options{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "clients_floor" {
		t.Fatalf("want exactly the clients_floor regression, got %v", regs)
	}
}

func TestRegressServeConsistencyErrors(t *testing.T) {
	for name, mutate := range map[string]func(map[string]any){
		"request ledger": func(art map[string]any) {
			art["load"].(map[string]any)["ok"] = 2999
		},
		"submission ledger": func(art map[string]any) {
			art["load"].(map[string]any)["accepted"] = 13
		},
		"unordered percentiles": func(art map[string]any) {
			art["load"].(map[string]any)["p50Millis"] = 200.0
		},
		"rps derivation": func(art map[string]any) {
			art["load"].(map[string]any)["rps"] = 4000.0
		},
		"rates out of range": func(art map[string]any) {
			art["load"].(map[string]any)["shedRatePct"] = 120.0
		},
		"missing meta": func(art map[string]any) {
			art["meta"] = RunMeta{}
		},
	} {
		if _, err := Regress(writeServeFixture(t, mutate), Options{}, 1, nil); err == nil {
			t.Errorf("%s inconsistency did not error", name)
		}
	}
}
