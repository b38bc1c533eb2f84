package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"capuchin/internal/fleet"
)

// regressBase is a minimal two-scenario comparison for exercising the
// gate's direction and tolerance logic without running a fleet.
func regressBase() FleetComparison {
	return FleetComparison{
		Meta: NewRunMeta("test", 1, true),
		Jobs: 10, Devices: 2, Seed: 1,
		Menu: []string{"a/b1", "c/b2"},
		Runs: []fleet.Report{
			{Mode: "admit-all", Manager: "none", Completed: 100, KillRatePct: 40,
				UtilizationPct: 50, GoodputPct: 48, P50JCTMillis: 1000, P99JCTMillis: 10000},
			{Mode: "predictive", Manager: "capuchin", Completed: 120, KillRatePct: 0,
				UtilizationPct: 55, GoodputPct: 54, P50JCTMillis: 1200, P99JCTMillis: 12000},
		},
	}
}

// judged passes a row builder's rows through the gate's judge.
func judged(rows []Row, err error) ([]Row, error) {
	if err != nil {
		return nil, err
	}
	return judge(rows), nil
}

func TestCompareFleetSelfIsClean(t *testing.T) {
	base := regressBase()
	regs, err := judged(compareFleet(base, base, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("self-comparison flagged regressions: %v", regs)
	}
}

func TestCompareFleetDirections(t *testing.T) {
	base := regressBase()
	fresh := regressBase()
	// Bad directions: fewer completions, more kills, lower utilization,
	// slower tails — all well past tolerance.
	fresh.Runs[0].Completed = 80
	fresh.Runs[0].KillRatePct = 60
	fresh.Runs[0].UtilizationPct = 40
	fresh.Runs[0].P99JCTMillis = 20000
	regs, err := judged(compareFleet(base, fresh, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"completed": true, "killRatePct": true,
		"utilizationPct": true, "p99JctMillis": true}
	got := map[string]bool{}
	for _, r := range regs {
		if r.Scenario != "admit-all" {
			t.Errorf("unexpected scenario %q in %v", r.Scenario, r)
		}
		got[r.Metric] = true
	}
	for m := range want {
		if !got[m] {
			t.Errorf("metric %s did not flag (got %v)", m, regs)
		}
	}

	// The same drift in the good direction never flags.
	better := regressBase()
	better.Runs[0].Completed = 120
	better.Runs[0].KillRatePct = 20
	better.Runs[0].UtilizationPct = 60
	better.Runs[0].P99JCTMillis = 5000
	regs, err = judged(compareFleet(base, better, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("improvements flagged as regressions: %v", regs)
	}
}

func TestCompareFleetSlackWidens(t *testing.T) {
	base := regressBase()
	fresh := regressBase()
	fresh.Runs[0].Completed = 95 // 5% drop: past the 2% tolerance at slack 1
	if regs, err := judged(compareFleet(base, fresh, 1)); err != nil || len(regs) != 1 {
		t.Fatalf("want exactly one regression at slack 1, got %v (%v)", regs, err)
	}
	if regs, err := judged(compareFleet(base, fresh, 4)); err != nil || len(regs) != 0 {
		t.Fatalf("slack 4 should absorb a 5%% drop, got %v (%v)", regs, err)
	}
}

func TestCompareFleetExperimentIdentity(t *testing.T) {
	base := regressBase()
	for _, mutate := range []func(*FleetComparison){
		func(fc *FleetComparison) { fc.Jobs++ },
		func(fc *FleetComparison) { fc.Devices++ },
		func(fc *FleetComparison) { fc.Seed++ },
		func(fc *FleetComparison) { fc.Menu = []string{"a/b1"} },
		func(fc *FleetComparison) { fc.Runs = fc.Runs[:1] },
		func(fc *FleetComparison) { fc.Runs[1].Manager = "none" },
	} {
		fresh := regressBase()
		mutate(&fresh)
		if _, err := judged(compareFleet(base, fresh, 1)); err == nil {
			t.Errorf("experiment-identity drift not rejected: base %+v fresh %+v", base, fresh)
		}
	}
}

// TestDegradedFixtureIsUnachievable pins the checked-in degraded
// baseline: its admit-all metrics are strictly better than what the
// simulator produces, so gating any honest fresh run against it must
// flag regressions. The fixture exists so `make regress-smoke` can
// prove the gate fails when it should.
func TestDegradedFixtureIsUnachievable(t *testing.T) {
	degraded, err := readArtifact(filepath.Join("testdata", "fleet_regressed_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	real, err := os.ReadFile(filepath.Join("..", "..", "BENCH_fleet.json"))
	if err != nil {
		t.Skipf("no checked-in BENCH_fleet.json: %v", err)
	}
	var fresh FleetComparison
	if err := json.Unmarshal(real, &fresh); err != nil {
		t.Fatal(err)
	}
	regs, err := judged(compareFleet(degraded.FleetComparison, fresh, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) == 0 {
		t.Fatal("degraded fixture did not flag the real baseline as regressed")
	}
	for _, r := range regs {
		if r.Scenario != "admit-all" {
			t.Errorf("fixture degrades only admit-all, but %s flagged: %v", r.Scenario, r)
		}
	}
}

func TestReadFleetBaselineRequiresMeta(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "no_meta.json")
	fc := regressBase()
	fc.Meta = RunMeta{}
	b, err := json.Marshal(fc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Regress(path, Options{}, 1, nil); err == nil {
		t.Fatal("baseline without provenance accepted")
	}
}

// TestGateKindDetection pins which gate each checked-in artifact's
// top-level keys pick, and that an artifact naming no gate, or an alloc
// budget without bench output, is an error.
func TestGateKindDetection(t *testing.T) {
	for path, want := range map[string]string{
		"../../BENCH_fleet.json":                 "fleet",
		"../../BENCH_parallel_runner.json":       "runner",
		"../../BENCH_hotpath.json":               "hotpath",
		"../../BENCH_serve.json":                 "serve",
		"testdata/fleet_regressed_baseline.json": "fleet",
		"testdata/serve_regressed_baseline.json": "serve",
		"testdata/alloc_budget.json":             "alloc",
		"testdata/alloc_budget_regressed.json":   "alloc",
	} {
		a, err := readArtifact(path)
		if err != nil {
			t.Fatal(err)
		}
		if got, rows := a.gate(); got != want || rows == nil {
			t.Errorf("%s picks gate %q, want %q", path, got, want)
		}
	}

	unknown := filepath.Join(t.TempDir(), "unknown.json")
	writeJSON(t, unknown, map[string]any{"meta": NewRunMeta("test", 0, false), "results": []int{1}})
	if _, err := Regress(unknown, Options{}, 1, nil); err == nil {
		t.Error("artifact with no gate's key accepted")
	}
	if _, err := Regress("testdata/alloc_budget.json", Options{}, 1, nil); err == nil {
		t.Error("alloc budget gated without bench output")
	}
}

func TestRunMetaValidate(t *testing.T) {
	if err := NewRunMeta("tool", 0, false).Validate(); err != nil {
		t.Errorf("fresh meta invalid: %v", err)
	}
	if err := (RunMeta{GoVersion: "go1.24.0"}).Validate(); err == nil {
		t.Error("empty Tool accepted")
	}
	if err := (RunMeta{Tool: "t"}).Validate(); err == nil {
		t.Error("empty GoVersion accepted")
	}
	m := NewRunMeta("t", 0, false).WithDate("2026-08-07")
	if m.Date != "2026-08-07" {
		t.Errorf("WithDate did not stick: %+v", m)
	}
}

// TestRegressParallelRunner exercises the runner gate end-to-end against
// a synthetic baseline: the determinism check must pass on the real
// runner, and a baseline recording an absurdly fast parallel ratio must
// not flag (the bound is one-sided: only catastrophic slowdowns fail).
func TestRegressParallelRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the executor matrix twice")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "runner.json")
	baseline := map[string]any{
		"meta": NewRunMeta("make bench", 0, false),
		"matrix_microbenchmark": map[string]any{
			"serial_ns_per_op":   100,
			"parallel_ns_per_op": 140,
			"parallel_vs_serial": 1.4,
		},
	}
	b, err := json.MarshalIndent(baseline, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	regs, err := Regress(path, Options{}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		if r.Metric == "determinism" {
			t.Fatalf("parallel runner is nondeterministic: %v", r)
		}
	}
}
