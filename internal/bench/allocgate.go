package bench

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// BenchResult is one parsed line of `go test -bench -benchmem` output.
type BenchResult struct {
	// NsPerOp, BytesPerOp and AllocsPerOp mirror the benchmark columns.
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
}

// ParseBenchOutput extracts benchmark results from `go test -bench
// -benchmem` output, possibly spanning several packages. Results are
// keyed "<import path>.<benchmark name>" using the surrounding "pkg:"
// header lines, with the -N GOMAXPROCS suffix stripped from names so
// keys are stable across -cpu settings. Lines that are not benchmark
// results (headers, PASS/ok trailers) are ignored.
func ParseBenchOutput(r io.Reader) (map[string]BenchResult, error) {
	out := make(map[string]BenchResult)
	var pkg string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		// A result line is name, iteration count, then unit pairs
		// ("... ns/op ... B/op ... allocs/op"). Anything else starting
		// with "Benchmark" (e.g. a bare name echoed under -v) is not a
		// result and is skipped.
		if len(f) < 2 {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name := trimCPUSuffix(f[0])
		res := BenchResult{}
		cols := map[string]*float64{"ns/op": &res.NsPerOp, "B/op": &res.BytesPerOp, "allocs/op": &res.AllocsPerOp}
		seen := 0
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench: malformed benchmark line %q: %v", line, err)
			}
			if col, ok := cols[f[i+1]]; ok {
				*col = v
				seen++
			}
		}
		if seen < 3 {
			return nil, fmt.Errorf("bench: line %q lacks -benchmem columns (got %d of 3)", line, seen)
		}
		key := name
		if pkg != "" {
			key = pkg + "." + name
		}
		out[key] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// trimCPUSuffix strips the trailing "-N" GOMAXPROCS marker go test
// appends to benchmark names when N != 1.
func trimCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// allocRows gates `go test -bench -benchmem` output against the
// allocs/op budget the artifact holds — the perf-smoke contract.
func (a *artifact) allocRows() ([]Row, error) {
	if a.bench == nil {
		return nil, fmt.Errorf("bench: %s is an alloc budget, which needs benchmark output to gate", a.path)
	}
	if len(a.Budgets) == 0 {
		return nil, fmt.Errorf("bench: %s budgets no benchmarks", a.path)
	}
	got, err := ParseBenchOutput(a.bench)
	if err != nil {
		return nil, err
	}
	return budgetRows(a.Budgets, got)
}

// budgetRows turns parsed benchmark results into one row per budgeted
// benchmark. Every budgeted benchmark must be present — a benchmark
// that silently stopped running must fail the gate, not pass it.
// Unbudgeted benchmarks in got are ignored, so the suite can grow ahead
// of the budget.
func budgetRows(budgets map[string]float64, got map[string]BenchResult) ([]Row, error) {
	names := make([]string, 0, len(budgets))
	for name := range budgets {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([]Row, 0, len(names))
	for _, name := range names {
		res, ok := got[name]
		if !ok {
			return nil, fmt.Errorf("bench: budgeted benchmark %s missing from output", name)
		}
		rows = append(rows, allocRow(name, "allocs/op", budgets[name], res.AllocsPerOp))
	}
	return rows, nil
}

// allocRow is the row for one budgeted allocs/op figure. allocs/op is
// load-independent, so the budget itself is the limit at any slack.
func allocRow(scenario, metric string, budget, allocs float64) Row {
	return Row{scenario, metric, budget, allocs, budget, false}
}
