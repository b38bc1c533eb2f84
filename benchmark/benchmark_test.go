package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"capuchin/internal/bench"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// The wants are Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{7}, 7, 7},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3, 9},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestPercentile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		in   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{4}, 99, 4},
		{hundred, 50, 50},
		{hundred, 90, 90},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{[]float64{1, 2, 3}, 50, 2},
	} {
		if got := percentile(tc.in, tc.p); got != tc.want {
			t.Errorf("percentile(n=%d, %v) = %v, want %v", len(tc.in), tc.p, got, tc.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0},
		{19, 0},
		{20, 50},
		{40, 75},
		{99, 75},
		{100, 90},
		{200, 95},
		{1000, 99},
		{3500, 99},
		{10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name        string
		base, new   []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"same", steady, steady, true, 0.1, verdictWithin},
		{"small drift", steady, shift(steady, 1.03), true, 0.1, verdictWithin},
		{"slower", steady, shift(steady, 1.2), true, 0.1, verdictWorse},
		{"faster", steady, shift(steady, 0.8), true, 0.1, verdictBetter},
		{"throughput drop", steady, shift(steady, 0.8), false, 0.1, verdictWorse},
		{"throughput gain", steady, shift(steady, 1.2), false, 0.1, verdictBetter},
		{"noisy", noisy, shift(noisy, 1.05), true, 0.1, verdictUnresolved},
		{"noisy but separated", noisy, shift(noisy, 3), true, 0.1, verdictWorse},
		{"empty", nil, steady, true, 0.1, verdictUnresolved},
	} {
		if got := verdict(tc.base, tc.new, tc.lowerBetter, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json; decoding rejects unknown keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bj.Paths, bj.RunSeconds)
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.EndToEnd) > 16 || len(bj.PerLayer) != len(perLayer) || len(bj.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	e2e := map[string]bool{}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		checkName(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %s %s %s %v", i, m, d.Name, d.Unit, d.Better, d.Bound)
		}
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: needs a unit, a direction and a bound in (0, 0.25]", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		e2e[m.Name] = true
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s in s, lower")
	}
	for i, m := range bj.PerLayer {
		checkName(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: needs a unit and a direction", m.Name)
		}
	}
	checkLayerMap(t, e2e)
}

// checkLayerMap holds README.md's per-layer table to the program: every
// per-layer metric has a row, and every host metric's row names the
// end-to-end metrics it should move and the workloads it moves them on.
func checkLayerMap(t *testing.T, e2e map[string]bool) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	ticked := regexp.MustCompile("`([^`]+)`")
	type row struct{ moves, on string }
	rows := map[string]row{}
	inTable := false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "| layer metric |") {
			inTable = true
			continue
		}
		if !inTable || strings.HasPrefix(line, "|---") {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		cols := strings.Split(strings.Trim(line, "|"), "|")
		if len(cols) != 4 {
			t.Errorf("README layer row has %d columns, want 4: %s", len(cols), line)
			continue
		}
		m := ticked.FindStringSubmatch(cols[0])
		if m == nil {
			t.Errorf("README layer row names no metric: %s", line)
			continue
		}
		rows[m[1]] = row{moves: cols[2], on: cols[3]}
	}
	for _, d := range perLayer {
		r, ok := rows[d.Name]
		if !ok {
			t.Errorf("README's layer table has no row for %s", d.Name)
			continue
		}
		switch d.Kind {
		case "host":
			moves := ticked.FindAllStringSubmatch(r.moves, -1)
			if len(moves) == 0 {
				t.Errorf("layer metric %s names no end-to-end metric it should move", d.Name)
			}
			for _, e := range moves {
				if !e2e[e[1]] {
					t.Errorf("layer metric %s moves unknown end-to-end metric %s", d.Name, e[1])
				}
			}
			on := strings.Split(strings.TrimSpace(r.on), ", ")
			for _, w := range on {
				if _, ok := workloadByName(w); !ok {
					t.Errorf("layer metric %s moves on unknown workload %q", d.Name, w)
				}
			}
		case "virtual", "sanity":
		default:
			t.Errorf("layer metric %s has kind %q", d.Name, d.Kind)
		}
	}
}

var tiny = size{
	maxbatchModels: []string{"resnet50"},
	maxbatchMemGiB: 1,
	trainCells:     1,
	trainIters:     10,
	serveModels:    []string{"alexnet"},
	serveBatches:   []int64{1, 4},
	fleet:          bench.FleetOptions{Jobs: 20, Devices: 2, Seed: 1},
	fleetQuick:     true,
	setups:         1,
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks what each reports.
func TestWorkloadsTiny(t *testing.T) {
	for _, spec := range workloads {
		res := measure(context.Background(), spec, 2, tiny, 100*time.Millisecond, false, "")
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", spec.name, res.Correct, res.Attempted, res.Failed, res.Notes)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end %s = %v (present %v), want > 0", spec.name, d.Name, v, ok)
			}
		}

		chrome := filepath.Join(t.TempDir(), "trace.json")
		res = measure(context.Background(), spec, 2, tiny, 100*time.Millisecond, true, chrome)
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d notes=%v", spec.name, res.Correct, res.Failed, res.Notes)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics, want %d", spec.name, len(res.Metrics), len(perLayer))
		}
		if c := res.Metrics["trace.coverage_pct"]; c < 90 || c > 100.001 {
			t.Errorf("%s traced: coverage %.2f%%, want >= 90%%", spec.name, c)
		}
		raw, err := os.ReadFile(chrome)
		if err != nil {
			t.Fatal(err)
		}
		var ct struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &ct); err != nil || len(ct.TraceEvents) == 0 {
			t.Errorf("%s traced: Chrome trace unreadable or empty: %v", spec.name, err)
		}
	}
}

// TestWorkUnits pins what a repetition counts: maxbatch's work is its
// searches, not the cells they probe, and serve's latencies cover its
// new requests only.
func TestWorkUnits(t *testing.T) {
	mb := newMaxbatch(1, tiny).(*maxbatch)
	r, err := mb.rep(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if r.work != int64(len(mb.searches)) || len(r.cells) <= len(mb.searches) {
		t.Errorf("maxbatch: work %d over %d cells, want the %d searches", r.work, len(r.cells), len(mb.searches))
	}

	sv := newServe(1, tiny).(*serveWorkload)
	r, err = sv.rep(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if r.work != int64(len(sv.reqs)) || len(r.latencies) != len(sv.cells) || len(sv.cells) == len(sv.reqs) {
		t.Errorf("serve: work %d, %d latencies, %d new of %d requests", r.work, len(r.latencies), len(sv.cells), len(sv.reqs))
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate, virt float64) string {
		var buf bytes.Buffer
		for i := 0; i < 10; i++ {
			line, _ := json.Marshal(record{Workload: "train", Seed: uint64(i + 1), Correct: true,
				Metrics: map[string]float64{"work_per_s": rate * (1 + float64(i%3)/100), "sim.samples_per_s": virt}})
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow, drift := write("base", 100, 7), write("same", 100, 7), write("slow", 70, 7), write("drift", 100, 8)
	for _, tc := range []struct {
		newPath   string
		wantWorse bool
		want      []string
	}{
		{same, false, []string{"work_per_s", "within bound", "identical"}},
		{slow, true, []string{"worse", "-30.0%"}},
		{drift, false, []string{"differs"}},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(base, tc.newPath, &out)
		if err != nil || worse != tc.wantWorse {
			t.Errorf("compare %s: worse=%v err=%v", tc.newPath, worse, err)
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("compare %s: output lacks %q:\n%s", tc.newPath, w, out.String())
			}
		}
	}
}

func TestHeapGuardTrips(t *testing.T) {
	tripped := make(chan struct{})
	g := startHeapGuard(1, func() { close(tripped) })
	select {
	case <-tripped:
	case <-time.After(5 * time.Second):
		t.Fatal("guard with a 1-byte limit did not trip")
	}
	if !g.stop() {
		t.Error("stop reports the guard as not tripped")
	}
	if g := startHeapGuard(1<<62, func() { t.Error("tripped below the limit") }); g.stop() {
		t.Error("stop reports an untripped guard as tripped")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-compare", "only-one"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q, want 2 and nothing", args, code, out.String())
		}
	}
}
