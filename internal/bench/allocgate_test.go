package bench

import (
	"strings"
	"testing"
)

// sampleBenchOutput is verbatim-shaped `go test -bench -benchmem`
// output spanning two packages, including every non-benchmark line kind
// the parser must skip.
const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: capuchin
cpu: Intel(R) Xeon(R) CPU
BenchmarkHotPathIteration 	     300	    623581 ns/op	     110 B/op	       1 allocs/op
BenchmarkHotPathMeasuredIteration-8 	      50	   2129901 ns/op	 1296660 B/op	    9579 allocs/op
PASS
ok  	capuchin	2.151s
pkg: capuchin/internal/memory
BenchmarkHotPathBFCAllocFree 	  215470	      5572 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	capuchin/internal/memory	1.003s
`

func TestParseBenchOutput(t *testing.T) {
	got, err := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d results, want 3: %v", len(got), got)
	}
	it, ok := got["capuchin.BenchmarkHotPathIteration"]
	if !ok {
		t.Fatal("iteration benchmark missing")
	}
	if it.AllocsPerOp != 1 || it.BytesPerOp != 110 || it.NsPerOp != 623581 {
		t.Fatalf("iteration parsed wrong: %+v", it)
	}
	// The -8 GOMAXPROCS suffix is stripped so keys stay stable across
	// -cpu settings.
	if _, ok := got["capuchin.BenchmarkHotPathMeasuredIteration"]; !ok {
		t.Fatalf("cpu-suffixed name not normalized: %v", got)
	}
	if _, ok := got["capuchin/internal/memory.BenchmarkHotPathBFCAllocFree"]; !ok {
		t.Fatal("second package's benchmark missing")
	}
}

func TestParseBenchOutputRejectsMissingBenchmem(t *testing.T) {
	const noMem = `pkg: capuchin
BenchmarkHotPathIteration 	     300	    623581 ns/op	     110 B/op
`
	if _, err := ParseBenchOutput(strings.NewReader(noMem)); err == nil {
		t.Fatal("output without allocs/op column parsed without error")
	}
}

// TestCheckAllocBudgetFires proves the gate's failing direction: a
// benchmark over budget yields a regressed row naming it.
func TestCheckAllocBudgetFires(t *testing.T) {
	got, err := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	regs, err := judged(budgetRows(map[string]float64{
		"capuchin.BenchmarkHotPathIteration": 0, // observed 1 -> must fire
	}, got))
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %v", len(regs), regs)
	}
	if regs[0].Scenario != "capuchin.BenchmarkHotPathIteration" || regs[0].Fresh != 1 {
		t.Fatalf("wrong regression: %+v", regs[0])
	}
}

// TestCheckAllocBudgetPasses proves the passing direction with budgets
// at the observed values.
func TestCheckAllocBudgetPasses(t *testing.T) {
	got, err := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	regs, err := judged(budgetRows(map[string]float64{
		"capuchin.BenchmarkHotPathIteration":                    1,
		"capuchin.BenchmarkHotPathMeasuredIteration":            10500,
		"capuchin/internal/memory.BenchmarkHotPathBFCAllocFree": 0,
	}, got))
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

// TestCheckAllocBudgetMissingBenchmark: a budgeted benchmark absent
// from the output is an error, not a pass — a silently skipped
// benchmark must not look like a green gate.
func TestCheckAllocBudgetMissingBenchmark(t *testing.T) {
	got, err := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := judged(budgetRows(map[string]float64{
		"capuchin.BenchmarkHotPathVanished": 0,
	}, got)); err == nil {
		t.Fatal("missing budgeted benchmark did not error")
	}
}

// TestCheckedInBudgets validates both checked-in fixtures: the real
// budget must load, cover the iteration benchmark, and demand zero
// allocations from every steady-state micro-benchmark; the regressed
// fixture must be strictly tighter somewhere real output exceeds it.
func TestCheckedInBudgets(t *testing.T) {
	real, err := readArtifact("testdata/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := real.Budgets["capuchin.BenchmarkHotPathIteration"]; !ok {
		t.Fatal("real budget does not cover the flagship iteration benchmark")
	}
	zeros := 0
	for _, max := range real.Budgets {
		if max == 0 {
			zeros++
		}
	}
	if zeros < 8 {
		t.Fatalf("only %d zero-alloc budgets; the steady-state suite should pin at least 8", zeros)
	}

	bad, err := readArtifact("testdata/alloc_budget_regressed.json")
	if err != nil {
		t.Fatal(err)
	}
	max, ok := bad.Budgets["capuchin.BenchmarkHotPathMeasuredIteration"]
	if !ok || max != 0 {
		t.Fatalf("regressed fixture must zero the measured-iteration budget, got %v (present=%v)", max, ok)
	}
}
