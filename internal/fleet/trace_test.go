package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
)

// updateFleetTrace regenerates the golden fleet Chrome trace:
//
//	go test ./internal/fleet -run ChromeTraceGolden -update-fleet-trace
var updateFleetTrace = flag.Bool("update-fleet-trace", false, "rewrite the golden fleet Chrome trace")

// traceConfig is a compact high-pressure scenario whose timeline
// exercises every lifecycle edge: admissions, queueing, preemption,
// cap absorption, OOM kills and capped readmissions.
func traceConfig() Config {
	cfg := testConfig(Predictive, ManagerCapuchin)
	cfg.Jobs = 60
	cfg.Devices = 2
	cfg.DeviceMemory = 2 * hw.GiB
	cfg.Profiler = SyntheticProfiler{UnderestimateFrac: 0.35, MinCapRatio: 0.85}
	cfg.JitterFrac = 0.3
	return cfg
}

// reportJSON marshals a report for byte comparison.
func reportJSON(t *testing.T, rep Report) []byte {
	t.Helper()
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetTracingNeutrality is the fleet mirror of the executor's
// TestTracingNeutrality: attaching a tracer must not change a single
// byte of the report, nor a single metric in the registry — tracing
// observes the simulation, it never participates in it.
func TestFleetTracingNeutrality(t *testing.T) {
	for _, tc := range []struct {
		mode AdmissionMode
		mgr  Manager
	}{
		{AdmitAll, ManagerNone},
		{Predictive, ManagerNone},
		{Predictive, ManagerCapuchin},
	} {
		plain := mustRun(t, testConfig(tc.mode, tc.mgr))

		col := obs.NewCollector()
		cfg := testConfig(tc.mode, tc.mgr)
		cfg.Tracer = col
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}

		if got, want := reportJSON(t, traced), reportJSON(t, plain); !bytes.Equal(got, want) {
			t.Errorf("%v/%v: traced report differs from untraced:\n%s\nvs\n%s", tc.mode, tc.mgr, got, want)
		}
		if col.Len() == 0 {
			t.Errorf("%v/%v: tracer attached but no events recorded", tc.mode, tc.mgr)
		}

		// The registries must render identically too (same counters, same
		// histograms) — the Prometheus exposition is tracer-independent.
		var plainProm, tracedProm bytes.Buffer
		fp, err := New(testConfig(tc.mode, tc.mgr))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fp.Run(); err != nil {
			t.Fatal(err)
		}
		if err := fp.Metrics().WritePrometheus(&plainProm); err != nil {
			t.Fatal(err)
		}
		if err := f.Metrics().WritePrometheus(&tracedProm); err != nil {
			t.Fatal(err)
		}
		if plainProm.String() != tracedProm.String() {
			t.Errorf("%v/%v: traced registry exposition differs from untraced", tc.mode, tc.mgr)
		}
	}
}

// TestFleetAuditReconciliation pins the audit-record invariant: every
// OOM kill, preemption, cap absorption and (re)admission emits exactly
// one Decision, so the audit log reconciles to the report's totals.
func TestFleetAuditReconciliation(t *testing.T) {
	col := obs.NewCollector()
	cfg := traceConfig()
	cfg.Tracer = col
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}

	byAction := map[string]int{}
	for _, d := range col.Decisions() {
		byAction[d.Action]++
	}
	checks := []struct {
		action string
		want   int
	}{
		{"oom-kill", rep.Kills},
		{"preempt", rep.Preemptions},
		{"absorb-cap", rep.CapAbsorbs},
		{"requeue", rep.Requeues},
		{"shed", rep.Shed},
		{"complete", rep.Completed},
	}
	for _, c := range checks {
		if byAction[c.action] != c.want {
			t.Errorf("%d %q audit records, report says %d", byAction[c.action], c.action, c.want)
		}
	}
	if got := byAction["admit"] + byAction["readmit-capped"]; got != rep.Admissions {
		t.Errorf("%d admit + readmit-capped audit records, report says %d admissions", got, rep.Admissions)
	}
	// The scenario must actually exercise the paths being reconciled.
	if rep.Kills == 0 || rep.Preemptions == 0 || rep.CapAbsorbs == 0 {
		t.Errorf("scenario too tame: kills=%d preemptions=%d capAbsorbs=%d",
			rep.Kills, rep.Preemptions, rep.CapAbsorbs)
	}
	// Every oom-kill decision identifies its job and class.
	for _, d := range col.Decisions() {
		if d.Action != "oom-kill" {
			continue
		}
		if !strings.HasPrefix(d.Tensor, "job-") || d.Class == "" {
			t.Errorf("oom-kill decision missing job/class: %+v", d)
		}
	}
}

// TestFleetReportMatchesRegistry pins the derived-view contract: the
// report's counters are exactly the registry's fleet/* counters.
func TestFleetReportMatchesRegistry(t *testing.T) {
	f, err := New(traceConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := f.Metrics()
	for _, c := range []struct {
		name string
		want int
	}{
		{"fleet/jobs", rep.Jobs},
		{"fleet/admissions", rep.Admissions},
		{"fleet/completed", rep.Completed},
		{"fleet/rejected", rep.Rejected},
		{"fleet/shed", rep.Shed},
		{"fleet/kills", rep.Kills},
		{"fleet/preemptions", rep.Preemptions},
		{"fleet/requeues", rep.Requeues},
		{"fleet/cap-absorbs", rep.CapAbsorbs},
	} {
		if got := m.Counter(c.name); int(got) != c.want {
			t.Errorf("registry %s = %d, report says %d", c.name, got, c.want)
		}
	}
	// Per-class histograms observed once per admission / completion.
	var waits, jcts int64
	for c := Low; c < numClasses; c++ {
		if h, ok := m.Hist("fleet/queue-wait/" + c.String()); ok {
			waits += h.Count
		}
		if h, ok := m.Hist("fleet/jct/" + c.String()); ok {
			jcts += h.Count
		}
	}
	if int(waits) != rep.Admissions {
		t.Errorf("queue-wait observations %d != admissions %d", waits, rep.Admissions)
	}
	if int(jcts) != rep.Completed {
		t.Errorf("jct observations %d != completions %d", jcts, rep.Completed)
	}
}

// TestFleetChromeTraceGolden pins the fleet timeline export: one
// Perfetto process per device plus the scheduler, per-job lanes,
// memory/queue counter tracks, and admission/preempt/kill instants.
func TestFleetChromeTraceGolden(t *testing.T) {
	col := obs.NewCollector()
	cfg := traceConfig()
	cfg.Tracer = col
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, col.Events()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fleet_chrome.golden")
	if *updateFleetTrace {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-fleet-trace)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("fleet Chrome trace drifted from golden (regenerate with -update-fleet-trace if intended); got %d bytes, want %d", buf.Len(), len(want))
	}

	// Structural checks, independent of the golden bytes.
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	procs := map[string]bool{}
	counters := map[string]bool{}
	instants := map[string]bool{}
	depth := map[[2]int]int{}
	for _, r := range trace.TraceEvents {
		switch r.Ph {
		case "M":
			if r.Name == "process_name" {
				procs[r.Args["name"].(string)] = true
			}
		case "C":
			counters[r.Name] = true
		case "i":
			instants[r.Name] = true
		case "B":
			depth[[2]int{r.PID, r.TID}]++
		case "E":
			k := [2]int{r.PID, r.TID}
			depth[k]--
			if depth[k] < 0 {
				t.Fatalf("unbalanced E on pid %d tid %d", r.PID, r.TID)
			}
		}
	}
	for _, p := range []string{"scheduler", "device 0", "device 1"} {
		if !procs[p] {
			t.Errorf("missing process %q (have %v)", p, procs)
		}
	}
	for _, c := range []string{"queue depth", "device memory", "largest free chunk"} {
		if !counters[c] {
			t.Errorf("missing counter track %q", c)
		}
	}
	for _, in := range []string{"admit", "preempt", "oom-kill"} {
		if !instants[in] {
			t.Errorf("missing instant %q", in)
		}
	}
	for k, d := range depth {
		if d != 0 {
			t.Errorf("unclosed span on pid %d tid %d (depth %d)", k[0], k[1], d)
		}
	}
}

// TestFleetEmptyTraceByteIdentity mirrors PR 5's empty-group guarantee
// at the fleet level: an untraced fleet run contributes no events, so a
// Chrome trace written around it is byte-identical to the canonical
// empty trace — fleet tracing cannot leak into anyone else's timeline.
func TestFleetEmptyTraceByteIdentity(t *testing.T) {
	f, err := New(traceConfig()) // nil tracer
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	const emptyTrace = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" +
		"{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,\"args\":{\"name\":\"capuchin-sim\"}}\n" +
		"]}\n"
	if buf.String() != emptyTrace {
		t.Errorf("empty trace drifted:\n%s", buf.String())
	}

	// Queued-span timing sanity while we're here: queue-wait histogram
	// durations are non-negative and bounded by the makespan.
	for c := Low; c < numClasses; c++ {
		if h, ok := f.Metrics().Hist("fleet/queue-wait/" + c.String()); ok {
			if h.Min < 0 || h.Max > sim.Time(1<<62) {
				t.Errorf("class %v queue-wait out of range: min %v max %v", c, h.Min, h.Max)
			}
		}
	}
}
