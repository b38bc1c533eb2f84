// Command benchmark measures the simulator's host cost end to end on four
// seeded workloads and, with -trace 1, splits that cost by layer from
// outside the program. See README.md for the workloads, the metrics and
// how to compare two commits.
//
//	bash benchmark/run.sh [-workload all|maxbatch|train|serve|fleet] [-seed N]
//	    [-seconds S] [-trace 0|1] [-out runs.jsonl] [-chrome trace.json]
//	bash benchmark/run.sh -compare base.jsonl new.jsonl
//
// Each workload sets up three times (input generation, a fresh fixture
// and one untimed warm-up repetition; setup_s is their median), then runs
// timed repetitions, each on a fresh Runner or Server, for -seconds.
// Times are reported in reference-host time (see refCalibration). It
// prints one "workload metric value unit" line per metric, checks that
// the outputs are correct, and ends with one JSON line: correct,
// attempted, failed and metrics. The exit code is nonzero when a check
// or an operation failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is one workload's outcome.
type result struct {
	Workload          string
	Seed              uint64
	Trace             bool
	Correct           bool
	Attempted, Failed int64
	Metrics           map[string]float64
	// Virtual holds the simulated outputs, which -out records carry in
	// both modes so -compare can hold them identical.
	Virtual map[string]float64
	// Notes are context lines for people: sample counts, simulated
	// outputs, failed checks.
	Notes []string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all, maxbatch, train, serve or fleet")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Int("seconds", 25, "seconds of timed repetitions (or replay passes with -trace 1) per workload")
	trace := fs.Int("trace", 0, "1 makes a separate traced run that reports the per-layer metrics instead")
	out := fs.String("out", "", "append one JSON record per workload to this file, the input of -compare")
	chrome := fs.String("chrome", "", "where -trace 1 writes its Chrome trace (default .bench_build/trace_<workload>.json)")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments: base, then new")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two files: base.jsonl new.jsonl")
			return 2
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: want -seconds >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	specs := workloads
	if *name != "all" {
		spec, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		specs = []workloadSpec{spec}
	}

	var results []result
	for _, spec := range specs {
		path := *chrome
		if *trace == 1 && path == "" {
			path = fmt.Sprintf(".bench_build/trace_%s.json", spec.name)
		}
		res := measure(context.Background(), spec, *seed, full, time.Duration(*seconds)*time.Second, *trace == 1, path)
		printResult(stdout, res)
		if *out != "" {
			if err := appendRecord(*out, res); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		results = append(results, res)
	}
	sum := summarize(results)
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct || sum.Failed > 0 {
		return 1
	}
	return 0
}

// measure sets a workload up, times its repetitions (or, traced, replays
// them by layer) until the deadline, and checks its outputs.
func measure(ctx context.Context, spec workloadSpec, seed uint64, sz size, seconds time.Duration, traced bool, chromePath string) result {
	res := result{Workload: spec.name, Seed: seed, Trace: traced}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	guard := startHeapGuard(heapLimit, cancel)
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	nSetups := sz.setups
	if traced {
		nSetups = 1
	}
	// reps keeps every repetition without its outputs: retained outputs
	// would stay live and inflate later repetitions' heap. warm keeps
	// the last set-up whole, for check and the traced run.
	var w workload
	var warm repResult
	var reps []repResult
	var setups, calib []float64
	for k := 0; k < nSetups && len(problems) == 0; k++ {
		calib = append(calib, calibrate().Seconds())
		t0 := time.Now()
		w = spec.make(seed, sz)
		r, err := w.rep(ctx, traced)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			fail("set-up: %v", err)
		}
		warm = r
		reps = append(reps, r.trimmed())
	}
	deadline := time.Now().Add(seconds)

	var timed []repResult
	switch {
	case len(problems) > 0:
	case traced:
		m, mismatches, err := traceRun(ctx, w, warm, deadline, chromePath, calib)
		if err != nil {
			fail("trace: %v", err)
		}
		problems = append(problems, mismatches...)
		res.Metrics = m
		res.Notes = append(res.Notes, fmt.Sprintf("Chrome trace in %s", chromePath))
	default:
		est := time.Duration(0)
		for len(timed) == 0 || time.Now().Add(est).Before(deadline) {
			r0 := time.Now()
			calib = append(calib, calibrate().Seconds())
			r, err := w.rep(ctx, false)
			est = time.Since(r0)
			timed = append(timed, r.trimmed())
			if err != nil {
				fail("repetition %d: %v", len(timed), err)
				break
			}
		}
		res.Metrics, res.Notes = endToEndMetrics(setups, timed, calib)
	}
	reps = append(reps, timed...)
	for _, r := range reps { // set-ups count: a failure there is a failure too
		res.Attempted += r.work
		res.Failed += r.failed
	}
	if len(problems) == 0 {
		for i, r := range reps[1:] {
			if !reflect.DeepEqual(r.virtual, reps[0].virtual) {
				fail("repetition %d: simulated outputs %v differ from the first's %v", i+2, r.virtual, reps[0].virtual)
				break
			}
		}
		problems = append(problems, w.check(warm)...)
	}
	if guard.stop() {
		fail("live heap passed %d MiB; workload stopped", heapLimit>>20)
	}
	res.Virtual = warm.virtual
	res.Notes = append(res.Notes, virtualNotes(warm.virtual)...)
	if res.Attempted > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("fail_pct %.4g%% (%d of %d)", 100*float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted))
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fail("metric %s is %v", k, v)
			res.Metrics[k] = 0
		}
	}
	for _, p := range problems {
		res.Notes = append(res.Notes, "FAILED: "+p)
	}
	res.Correct = len(problems) == 0
	return res
}

// endToEndMetrics reduces the set-ups and timed repetitions to the
// end-to-end metrics. Times are scaled to reference-host time by the
// run's median calibration (see refCalibration).
func endToEndMetrics(setups []float64, timed []repResult, calib []float64) (map[string]float64, []string) {
	var rates, heaps, lat []float64
	for _, r := range timed {
		if r.elapsed > 0 {
			rates = append(rates, float64(r.work-r.failed)/r.elapsed.Seconds())
		}
		heaps = append(heaps, float64(r.heapBytes)/1e6)
		lat = append(lat, r.latencies...)
	}
	sort.Float64s(lat)
	slow := slowdown(calib)
	raw := map[string]float64{
		"setup_s":    median(setups),
		"work_per_s": median(rates),
		"p50_ms":     percentile(lat, 50),
		"p90_ms":     percentile(lat, 90),
	}
	m := map[string]float64{
		"setup_s":    raw["setup_s"] / slow,
		"work_per_s": raw["work_per_s"] * slow,
		"p50_ms":     raw["p50_ms"] / slow,
		"p90_ms":     raw["p90_ms"] / slow,
		"heap_mb":    median(heaps),
	}
	q1, q3 := quartiles(rates)
	notes := []string{
		fmt.Sprintf("host ran %.3gx the reference's time (calibration median %.4g ms over %d samples); raw wall time: setup_s %.6g, work_per_s %.6g, p50_ms %.6g, p90_ms %.6g",
			slow, 1000*median(calib), len(calib), raw["setup_s"], raw["work_per_s"], raw["p50_ms"], raw["p90_ms"]),
		fmt.Sprintf("%d timed repetitions, raw work_per_s quartiles %.6g..%.6g; raw set-ups %v s", len(timed), q1, q3, roundAll(setups)),
		fmt.Sprintf("%d request latencies; p90 has %d beyond it", len(lat), len(lat)-int(math.Ceil(0.9*float64(len(lat))))),
	}
	if p := tailPercentile(len(lat)); p > 0 {
		notes = append(notes, fmt.Sprintf("tail p%g_ms %.6g (reference-host time; the highest percentile with at least ten samples beyond)", p, percentile(lat, p)/slow))
	}
	return m, notes
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

func virtualNotes(v map[string]float64) []string {
	var notes []string
	for _, k := range sortedKeys(v) {
		notes = append(notes, fmt.Sprintf("simulated %s %.6g", k, v[k]))
	}
	return notes
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printResult writes one "workload metric value unit" line per metric,
// in table order, then the notes prefixed with '#'.
func printResult(w io.Writer, res result) {
	table := endToEnd
	if res.Trace {
		table = perLayer
	}
	for _, d := range table {
		if v, ok := res.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", res.Workload, d.Name, v, d.Unit)
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "# %s %s\n", res.Workload, n)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final output line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize folds the results into the final line; with more than one
// workload, metric names take a "workload/" prefix.
func summarize(results []result) summary {
	s := summary{Correct: true, Metrics: make(map[string]metricValue)}
	for _, r := range results {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for k, v := range r.Metrics {
			d, _ := metricByName(k)
			if len(results) > 1 {
				k = r.Workload + "/" + k
			}
			s.Metrics[k] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	return s
}

// record is one line of an -out file.
type record struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Env       map[string]string  `json:"env"`
}

func appendRecord(path string, res result) error {
	metrics := make(map[string]float64, len(res.Metrics)+len(res.Virtual))
	for k, v := range res.Virtual {
		metrics[k] = v
	}
	for k, v := range res.Metrics {
		metrics[k] = v
	}
	line, err := json.Marshal(record{
		Workload: res.Workload, Seed: res.Seed, Trace: res.Trace, Correct: res.Correct,
		Attempted: res.Attempted, Failed: res.Failed, Metrics: metrics, Env: provenance(),
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// provenance names the toolchain, the host's parallelism and, when the
// binary was built inside a git checkout, the revision.
func provenance() map[string]string {
	env := map[string]string{
		"go":    runtime.Version(),
		"nproc": fmt.Sprint(runtime.NumCPU()),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if strings.HasPrefix(s.Key, "vcs.") {
				env[s.Key] = s.Value
			}
		}
	}
	return env
}
