package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"capuchin/internal/exec"
	"capuchin/internal/fleet"
)

// The perf-regression gate. A checked-in artifact — a BENCH_*.json run
// record or an allocs/op budget — is a baseline. Regress reads it once,
// validates its provenance block once, and picks its gate from the
// artifact's top-level keys. The gate turns the artifact into rows, one
// per gated metric, each carrying the limit past which the fresh value
// regresses; one judge then flags the rows past their limit in the bad
// direction. Drift in the good direction never fails the gate.
//
// Each gate keeps its own limit formula. The fleet simulator is fully
// deterministic, so a fresh run at the baseline's parameters should
// match it almost exactly — the per-metric relative tolerances exist to
// absorb intentional small algorithm shifts, and the smoke `slack`
// multiplier loosens them further for CI (where the point is catching
// gross regressions, not pinning every decimal). Wall-clock floors are
// divided by slack. Acceptance floors and alloc budgets are exact and
// ignore it.

// metricSpec is one gated metric's direction and tolerance.
type metricSpec struct {
	name         string
	higherBetter bool
	relTol       float64 // allowed relative drift in the bad direction
	absTol       float64 // absolute floor, for near-zero baselines
	read         func(fleet.Report) float64
}

// fleetSpecs are the gated metrics of each fleet scenario.
var fleetSpecs = []metricSpec{
	{"completed", true, 0.02, 0.5, func(r fleet.Report) float64 { return float64(r.Completed) }},
	{"killRatePct", false, 0.05, 0.5, func(r fleet.Report) float64 { return r.KillRatePct }},
	{"utilizationPct", true, 0.03, 0.5, func(r fleet.Report) float64 { return r.UtilizationPct }},
	{"goodputPct", true, 0.03, 0.5, func(r fleet.Report) float64 { return r.GoodputPct }},
	{"p50JctMillis", false, 0.10, 1, func(r fleet.Report) float64 { return r.P50JCTMillis }},
	{"p99JctMillis", false, 0.15, 1, func(r fleet.Report) float64 { return r.P99JCTMillis }},
}

// Row is one gated metric: its baseline, the fresh (or recorded) value,
// and the limit Fresh may not pass in the bad direction.
type Row struct {
	Scenario string
	Metric   string
	Baseline float64
	Fresh    float64
	Limit    float64
	// HigherBetter rows regress below Limit; the others regress above it.
	HigherBetter bool
}

// String implements fmt.Stringer.
func (r Row) String() string {
	return fmt.Sprintf("%s/%s: baseline %.2f -> fresh %.2f (limit %.2f)",
		r.Scenario, r.Metric, r.Baseline, r.Fresh, r.Limit)
}

// judge returns the rows whose Fresh value is past Limit in the bad
// direction.
func judge(rows []Row) []Row {
	var regs []Row
	for _, r := range rows {
		if r.HigherBetter && r.Fresh < r.Limit || !r.HigherBetter && r.Fresh > r.Limit {
			regs = append(regs, r)
		}
	}
	return regs
}

// b2f maps a pass/fail record onto a row value: 1 for true, 0 for false.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// artifact is every baseline schema the gate reads, decoded once. Each
// schema has a top-level key only it has, and the field behind that key
// is nil when the key is absent; fields no gate reads stay in the raw
// JSON. bench cannot import internal/serve (serve builds on this
// package), so the serve fields are the gate's own view of that schema.
type artifact struct {
	// FleetComparison holds meta and, for a fleet record, runs.
	FleetComparison

	Runner *struct {
		SerialNsPerOp   int64   `json:"serial_ns_per_op"`
		ParallelNsPerOp int64   `json:"parallel_ns_per_op"`
		Ratio           float64 `json:"parallel_vs_serial"`
	} `json:"matrix_microbenchmark"`

	Serial *struct {
		BeforeNsPerOp int64   `json:"before_ns_per_op"`
		AfterNsPerOp  int64   `json:"after_ns_per_op"`
		Speedup       float64 `json:"speedup"`
	} `json:"matrix_serial"`
	Steady struct {
		AfterAllocsPerOp float64 `json:"after_allocs_per_op"`
	} `json:"steady_iteration"`
	AllocBudget string         `json:"alloc_budget"`
	Pprof       map[string]any `json:"pprof"`

	Load *struct {
		Clients        int     `json:"clients"`
		Total          int64   `json:"total"`
		OK             int64   `json:"ok"`
		Shed           int64   `json:"shed"`
		Errors         int64   `json:"errors"`
		Accepted       int64   `json:"accepted"`
		Deduped        int64   `json:"deduped"`
		DurationMillis float64 `json:"durationMillis"`
		RPS            float64 `json:"rps"`
		P50Millis      float64 `json:"p50Millis"`
		P99Millis      float64 `json:"p99Millis"`
		MaxMillis      float64 `json:"maxMillis"`
		ShedRatePct    float64 `json:"shedRatePct"`
		DedupRatePct   float64 `json:"dedupRatePct"`
	} `json:"load"`
	ByteIdentity struct {
		Identical bool `json:"identical"`
	} `json:"byte_identity"`
	Drain struct {
		InFlightAtDrain     int  `json:"inFlightAtDrain"`
		CompletedAfterDrain int  `json:"completedAfterDrain"`
		Dropped             int  `json:"dropped"`
		RejectedDuringDrain int  `json:"rejectedDuringDrain"`
		ShedObserved        bool `json:"shedObserved"`
	} `json:"drain"`

	// Budgets maps "<import path>.<benchmark name>" to its allocs/op
	// ceiling; 0 demands a steady-state allocation-free loop.
	Budgets map[string]float64 `json:"budgets"`

	// The gate's run: where the artifact lives, and how to judge it.
	path  string
	o     Options
	slack float64
	bench io.Reader // `go test -bench -benchmem` output; alloc budgets only
}

// Regress gates the artifact at path and returns the rows that
// regressed. benchOut is `go test -bench -benchmem` output, which only
// an alloc budget reads. A slack <= 0 means 1.
func Regress(path string, o Options, slack float64, benchOut io.Reader) ([]Row, error) {
	a, err := readArtifact(path)
	if err != nil {
		return nil, err
	}
	if slack <= 0 {
		slack = 1
	}
	a.o, a.slack, a.bench = o, slack, benchOut
	name, rows := a.gate()
	if rows == nil {
		return nil, fmt.Errorf("bench: %s has no top-level key that names a gate", path)
	}
	r, err := rows()
	if err != nil {
		return nil, fmt.Errorf("%s gate: %w", name, err)
	}
	return judge(r), nil
}

// readArtifact reads an artifact and validates its provenance block.
func readArtifact(path string) (*artifact, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a := &artifact{path: path}
	if err := json.Unmarshal(raw, a); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if err := a.Meta.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %s has no provenance block: %w", path, err)
	}
	return a, nil
}

// gate names the artifact's gate and returns its row builder, picked by
// the first top-level key of runs, matrix_microbenchmark, matrix_serial,
// load and budgets the artifact has; rows is nil when it has none.
func (a *artifact) gate() (name string, rows func() ([]Row, error)) {
	switch {
	case a.Runs != nil:
		return "fleet", a.fleetRows
	case a.Runner != nil:
		return "runner", a.runnerRows
	case a.Serial != nil:
		return "hotpath", a.hotpathRows
	case a.Load != nil:
		return "serve", a.serveRows
	case a.Budgets != nil:
		return "alloc", a.allocRows
	}
	return "", nil
}

// fleetRows reproduces the fleet experiment the artifact describes —
// same jobs, devices, seed and quick mode, read from the artifact
// itself — and compares the fresh run against it.
func (a *artifact) fleetRows() ([]Row, error) {
	o := a.o
	o.Quick = a.Meta.Quick
	fresh, err := FleetScenarios(o, FleetOptions{Jobs: a.Jobs, Devices: a.Devices, Seed: a.Seed})
	if err != nil {
		return nil, err
	}
	return compareFleet(a.FleetComparison, fresh, a.slack)
}

// compareFleet turns a fresh fleet comparison and its baseline into one
// row per scenario and gated metric. The limit is the baseline moved by
// RelTol × slack of its value in the bad direction, with a small
// absolute floor for near-zero baselines. The two must describe the
// same experiment (jobs, devices, seed, menu); a mismatch is an error,
// not a regression — the gate cannot judge different experiments
// against each other.
func compareFleet(base, fresh FleetComparison, slack float64) ([]Row, error) {
	if base.Jobs != fresh.Jobs || base.Devices != fresh.Devices || base.Seed != fresh.Seed {
		return nil, fmt.Errorf("bench: baseline (%d jobs, %d devices, seed %d) and fresh run (%d, %d, %d) describe different experiments",
			base.Jobs, base.Devices, base.Seed, fresh.Jobs, fresh.Devices, fresh.Seed)
	}
	if !reflect.DeepEqual(base.Menu, fresh.Menu) {
		return nil, fmt.Errorf("bench: workload menu drifted: baseline %v, fresh %v", base.Menu, fresh.Menu)
	}
	if len(base.Runs) != len(fresh.Runs) {
		return nil, fmt.Errorf("bench: %d baseline scenarios vs %d fresh", len(base.Runs), len(fresh.Runs))
	}
	var rows []Row
	for i, b := range base.Runs {
		fr := fresh.Runs[i]
		if b.Mode != fr.Mode || b.Manager != fr.Manager {
			return nil, fmt.Errorf("bench: scenario %d is %s+%s in baseline but %s+%s fresh",
				i, b.Mode, b.Manager, fr.Mode, fr.Manager)
		}
		scenario := b.Mode
		if b.Manager != "none" {
			scenario += "+" + b.Manager
		}
		for _, spec := range fleetSpecs {
			bv := spec.read(b)
			allowed := math.Max(spec.relTol*slack*math.Abs(bv), spec.absTol*slack)
			limit := bv + allowed
			if spec.higherBetter {
				limit = bv - allowed
			}
			rows = append(rows, Row{scenario, spec.name, bv, spec.read(fr), limit, spec.higherBetter})
		}
	}
	return rows, nil
}

// runnerRows gates the parallel experiment engine against its
// checked-in baseline. Wall-clock numbers are host-dependent, so the
// gate checks the two properties that must hold everywhere:
//
//   - determinism: an identical sweep at jobs=1 and jobs=4 produces
//     equal results (the property the baseline's byte-identity row
//     records);
//   - sanity: the parallel path is not catastrophically slower than
//     serial — the fresh serial/parallel wall-clock speedup stays above
//     the baseline's recorded speedup divided by 4 × slack (loose by
//     design: this is a smoke bound, not a timing benchmark).
func (a *artifact) runnerRows() ([]Row, error) {
	o := a.o.fill()
	cells := []RunConfig{
		{Model: "alexnet", Batch: 64, System: SystemTF, Device: o.Device, Iterations: 2},
		{Model: "alexnet", Batch: 128, System: SystemTF, Device: o.Device, Iterations: 2},
		{Model: "mobilenetv2", Batch: 32, System: SystemTF, Device: o.Device, Iterations: 2},
		{Model: "lstm", Batch: 4, System: SystemTF, Device: o.Device, Iterations: 2},
	}
	measure := func(jobs int) ([]exec.IterStats, time.Duration) {
		start := time.Now()
		res := NewRunner(jobs).RunAll(cells)
		wall := time.Since(start)
		stats := make([]exec.IterStats, len(res))
		for i, rr := range res {
			stats[i] = rr.Steady
		}
		return stats, wall
	}
	serialStats, serialWall := measure(1)
	parallelStats, parallelWall := measure(4)

	rows := []Row{{"parallel-runner", "determinism", 1, b2f(reflect.DeepEqual(serialStats, parallelStats)), 1, true}}
	// The artifact's parallel_vs_serial is a speedup: serial time over
	// parallel time, <1 when the pool only adds overhead (one core).
	m := a.Runner
	baseSpeedup := m.Ratio
	if baseSpeedup <= 0 && m.ParallelNsPerOp > 0 {
		baseSpeedup = float64(m.SerialNsPerOp) / float64(m.ParallelNsPerOp)
	}
	if baseSpeedup > 0 && parallelWall > 0 {
		rows = append(rows, Row{"parallel-runner", "parallel_vs_serial",
			baseSpeedup, float64(serialWall) / float64(parallelWall), baseSpeedup / (4 * a.slack), true})
	}
	return rows, nil
}

// serveRows gates the serving-layer artifact: the capuchin-serve
// selftest's load, byte-identity and drain records. Load-test
// wall-clock numbers are host-dependent, so — like the hot-path gate —
// this is a consistency gate over the claims the artifact records, not
// a re-run:
//
//   - internal consistency is an error, not a regression: the request
//     ledger must balance (total = ok + shed + errors, ok = accepted +
//     deduped submissions), the latency percentiles must be ordered,
//     and the recorded RPS must match ok/duration (within 2% x slack);
//   - the acceptance floors are regressions when missed: >= 1000
//     concurrent clients unless the meta block records a quick run,
//     zero request errors, a byte-identical served result, and a drain
//     that completed every accepted run (zero dropped), rejected new
//     work with 503, and observed the 429 backpressure path.
func (a *artifact) serveRows() ([]Row, error) {
	l, path := a.Load, a.path

	// Ledger and percentile consistency: a violated identity means the
	// artifact is corrupt or hand-edited, which no slack excuses.
	if l.Total != l.OK+l.Shed+l.Errors {
		return nil, fmt.Errorf("bench: %s request ledger off: total %d != ok %d + shed %d + errors %d",
			path, l.Total, l.OK, l.Shed, l.Errors)
	}
	if l.OK != l.Accepted+l.Deduped {
		return nil, fmt.Errorf("bench: %s submission ledger off: ok %d != accepted %d + deduped %d",
			path, l.OK, l.Accepted, l.Deduped)
	}
	if l.P50Millis > l.P99Millis || l.P99Millis > l.MaxMillis {
		return nil, fmt.Errorf("bench: %s latency percentiles unordered: p50 %.2f p99 %.2f max %.2f",
			path, l.P50Millis, l.P99Millis, l.MaxMillis)
	}
	if l.ShedRatePct < 0 || l.ShedRatePct > 100 || l.DedupRatePct < 0 || l.DedupRatePct > 100 {
		return nil, fmt.Errorf("bench: %s rates out of range: shed %.2f%% dedup %.2f%%",
			path, l.ShedRatePct, l.DedupRatePct)
	}
	if l.DurationMillis > 0 && l.RPS > 0 {
		derived := float64(l.OK) / (l.DurationMillis / 1000)
		if rel := math.Abs(derived-l.RPS) / l.RPS; rel > 0.02*a.slack {
			return nil, fmt.Errorf("bench: %s rps %.1f inconsistent with ok/duration (%.1f)",
				path, l.RPS, derived)
		}
	}

	clientFloor := 1000.0
	if a.Meta.Quick {
		clientFloor = math.Inf(-1)
	}
	d := a.Drain
	// Runs the drain lost: any dropped, or any accepted that did not
	// complete.
	lost := math.Abs(float64(d.Dropped)) + math.Abs(float64(d.InFlightAtDrain-d.CompletedAfterDrain))
	return []Row{
		{"serve", "clients_floor", 1000, float64(l.Clients), clientFloor, true},
		{"serve", "request_errors", 0, math.Abs(float64(l.Errors)), 0, false},
		{"serve", "byte_identity", 1, b2f(a.ByteIdentity.Identical), 1, true},
		{"serve", "drain_dropped", 0, lost, 0, false},
		{"serve", "drain_rejects_new_work", 1, float64(d.RejectedDuringDrain), 1, true},
		{"serve", "backpressure_observed", 1, b2f(d.ShedObserved), 1, true},
	}, nil
}

// hotpathRows gates the hot-path artifact's internal consistency.
// Wall-clock allocs/op numbers are re-measured live by the alloc gate
// (perf-smoke); this gate checks the claims the artifact records — so a
// budget loosened or an artifact edited out of sync with the checked-in
// budget fails loudly:
//
//   - the recorded speedup must match before/after ns and stay >= 3x,
//     the tentpole's floor;
//   - the steady iteration's recorded allocs/op must be within the
//     referenced alloc budget's ceiling for the flagship benchmark; a
//     relative alloc_budget path is resolved against the artifact's
//     directory;
//   - the before/after pprof top-10 lists must actually hold ten
//     entries each — the artifact is the audit trail for the work.
func (a *artifact) hotpathRows() ([]Row, error) {
	m, path := a.Serial, a.path
	if m.AfterNsPerOp <= 0 || m.BeforeNsPerOp <= 0 {
		return nil, fmt.Errorf("bench: %s records no matrix_serial before/after ns", path)
	}
	derived := float64(m.BeforeNsPerOp) / float64(m.AfterNsPerOp)
	if d := derived - m.Speedup; d < -0.02 || d > 0.02 {
		return nil, fmt.Errorf("bench: %s speedup %.2f inconsistent with before/after ns (%.2f)",
			path, m.Speedup, derived)
	}
	for _, name := range []string{"cpu_top10_before", "cpu_top10_after", "alloc_space_top10_before", "alloc_space_top10_after"} {
		if top, _ := a.Pprof[name].([]any); len(top) != 10 {
			return nil, fmt.Errorf("bench: %s pprof.%s holds %d entries, want 10", path, name, len(top))
		}
	}

	budgetPath := a.AllocBudget
	if !filepath.IsAbs(budgetPath) {
		budgetPath = filepath.Join(filepath.Dir(path), budgetPath)
	}
	budget, err := readArtifact(budgetPath)
	if err != nil {
		return nil, fmt.Errorf("bench: %s references unreadable alloc budget: %w", path, err)
	}
	const flagship = "capuchin.BenchmarkHotPathIteration"
	ceiling, ok := budget.Budgets[flagship]
	if !ok {
		return nil, fmt.Errorf("bench: alloc budget %s does not cover %s", budgetPath, flagship)
	}
	return []Row{
		{"hotpath", "matrix_serial_speedup", 3, derived, 3 / a.slack, true},
		allocRow("hotpath", "steady_allocs_per_op", ceiling, a.Steady.AfterAllocsPerOp),
	}, nil
}
