package fleet

import (
	"encoding/json"
	"strings"
	"testing"

	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
)

// testMenu is a small heterogeneous workload menu: peaks from ~300 MiB
// to ~1.6 GiB under the SyntheticProfiler defaults.
func testMenu() []Workload {
	return []Workload{
		{Model: "cnn-small", Batch: 8},
		{Model: "cnn-large", Batch: 24},
		{Model: "rnn", Batch: 2, Seq: 8},
		{Model: "nlp", Batch: 4, Seq: 16},
	}
}

// testConfig is a pressured four-device scenario: enough load that the
// queue, preemption and kill paths all exercise.
func testConfig(mode AdmissionMode, mgr Manager) Config {
	return Config{
		Seed:             42,
		Jobs:             150,
		Devices:          4,
		DeviceMemory:     3 * hw.GiB,
		Admission:        mode,
		Manager:          mgr,
		Profiler:         SyntheticProfiler{},
		Workloads:        testMenu(),
		MeanInterarrival: 20 * sim.Millisecond,
		JitterFrac:       0.25,
	}
}

func mustRun(t *testing.T, cfg Config) Report {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFleetAllJobsAccounted: every job ends in exactly one terminal
// state, for every mode/manager combination.
func TestFleetAllJobsAccounted(t *testing.T) {
	for _, tc := range []struct {
		mode AdmissionMode
		mgr  Manager
	}{
		{AdmitAll, ManagerNone},
		{Predictive, ManagerNone},
		{Predictive, ManagerCapuchin},
	} {
		rep := mustRun(t, testConfig(tc.mode, tc.mgr))
		if rep.Completed+rep.Rejected != rep.Jobs {
			t.Errorf("%v/%v: completed %d + rejected %d != jobs %d",
				tc.mode, tc.mgr, rep.Completed, rep.Rejected, rep.Jobs)
		}
		if rep.Completed == 0 {
			t.Errorf("%v/%v: nothing completed", tc.mode, tc.mgr)
		}
	}
}

// TestFleetDeterminism: equal configs produce byte-identical reports —
// the replayability contract behind the bench goldens.
func TestFleetDeterminism(t *testing.T) {
	for _, mode := range []AdmissionMode{AdmitAll, Predictive} {
		a := mustRun(t, testConfig(mode, ManagerCapuchin))
		b := mustRun(t, testConfig(mode, ManagerCapuchin))
		ja, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if string(ja) != string(jb) {
			t.Errorf("%v: replay diverged:\n%s\n%s", mode, ja, jb)
		}
	}
}

// TestFleetSeedsDiffer: different seeds must actually change the run —
// guards against the stream accidentally ignoring the seed.
func TestFleetSeedsDiffer(t *testing.T) {
	a := testConfig(Predictive, ManagerNone)
	b := a
	b.Seed = 43
	ja, _ := json.Marshal(mustRun(t, a))
	jb, _ := json.Marshal(mustRun(t, b))
	if string(ja) == string(jb) {
		t.Fatal("seeds 42 and 43 produced identical reports")
	}
}

// TestCriticalNeverPreempted is the hard priority invariant: no
// preemption decision ever names a CRITICAL victim, while preemption
// itself does fire under pressure.
func TestCriticalNeverPreempted(t *testing.T) {
	cfg := testConfig(Predictive, ManagerNone)
	cfg.Jobs = 250
	cfg.DeviceMemory = 3 * hw.GiB
	col := obs.NewCollector()
	cfg.Tracer = col
	rep := mustRun(t, cfg)
	if rep.Preemptions == 0 {
		t.Fatal("scenario exerted no preemption pressure; invariant untested")
	}
	for _, d := range col.Decisions() {
		if d.Action == "preempt" && d.Class == Critical.String() {
			t.Fatalf("CRITICAL job preempted: %+v", d)
		}
	}
	if got := rep.ByClass[Critical.String()].Preempted; got != 0 {
		t.Fatalf("report counts %d CRITICAL preemptions", got)
	}
}

// TestPredictiveBeatsAdmitAll is the headline acceptance: under the
// default seed, predictive admission kills strictly less than admit-all
// at equal-or-better utilization.
func TestPredictiveBeatsAdmitAll(t *testing.T) {
	base := mustRun(t, testConfig(AdmitAll, ManagerNone))
	pred := mustRun(t, testConfig(Predictive, ManagerNone))
	if pred.KillRatePct >= base.KillRatePct {
		t.Errorf("predictive kill rate %.2f%% not below admit-all %.2f%%",
			pred.KillRatePct, base.KillRatePct)
	}
	if pred.GoodputPct < base.GoodputPct {
		t.Errorf("predictive goodput %.2f%% below admit-all %.2f%%",
			pred.GoodputPct, base.GoodputPct)
	}
}

// TestCapuchinAbsorbsAndRecovers: the managed fallback ladder absorbs
// overshoot (capAbsorbs > 0) and kills no more than the unmanaged run.
func TestCapuchinAbsorbsAndRecovers(t *testing.T) {
	none := mustRun(t, testConfig(Predictive, ManagerNone))
	cap := mustRun(t, testConfig(Predictive, ManagerCapuchin))
	if cap.CapAbsorbs == 0 {
		t.Error("Capuchin manager absorbed nothing")
	}
	if cap.Kills > none.Kills {
		t.Errorf("Capuchin kills %d exceed unmanaged %d", cap.Kills, none.Kills)
	}
	if cap.Completed < none.Completed {
		t.Errorf("Capuchin completed %d < unmanaged %d", cap.Completed, none.Completed)
	}
}

// TestKilledJobRecovers: at least one job survives an OOM kill and still
// completes — the checkpoint/backoff/requeue path end to end. Uses the
// unmanaged run: under Capuchin most overshoot is absorbed, not killed.
func TestKilledJobRecovers(t *testing.T) {
	cfg := testConfig(Predictive, ManagerNone)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for _, j := range f.Jobs() {
		if j.Kills > 0 && j.State == StateCompleted {
			recovered++
			if j.DoneIters != j.Iters {
				t.Errorf("job %d completed with %d/%d iters", j.ID, j.DoneIters, j.Iters)
			}
		}
	}
	if recovered == 0 {
		t.Error("no job recovered from an OOM kill")
	}
}

// TestCappedReadmission: when cap absorption is infeasible (MinCapRatio
// near 1), Capuchin kills must come back as capped readmissions — some
// job runs capped (Cap > 0, Capped) and still completes.
func TestCappedReadmission(t *testing.T) {
	cfg := testConfig(Predictive, ManagerCapuchin)
	cfg.Profiler = SyntheticProfiler{MinCapRatio: 0.95}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	capped := 0
	for _, j := range f.Jobs() {
		if j.Kills > 0 && j.Cap > 0 {
			capped++
			if j.Cap < int64(float64(j.Actual)*j.Profile.MinCapRatio) {
				t.Errorf("job %d readmission cap %d below feasibility floor", j.ID, j.Cap)
			}
			if j.State == StateCompleted && j.DoneIters != j.Iters {
				t.Errorf("job %d completed with %d/%d iters", j.ID, j.DoneIters, j.Iters)
			}
		}
	}
	if capped == 0 {
		t.Error("no killed job was readmitted under a tighter cap")
	}
}

// TestUnfittableJobRejected: a workload bigger than any device is
// rejected immediately — the livelock guard.
func TestUnfittableJobRejected(t *testing.T) {
	cfg := testConfig(Predictive, ManagerNone)
	cfg.Workloads = []Workload{{Model: "monster", Batch: 2000}}
	cfg.Jobs = 10
	rep := mustRun(t, cfg)
	if rep.Completed != 0 || rep.Rejected != 10 {
		t.Fatalf("monster workload: completed %d rejected %d, want 0/10", rep.Completed, rep.Rejected)
	}
}

// TestCheckAccountingDeviceLedgers: a device class ledger left nonzero
// at drain fails the run's accounting, naming the device and class.
func TestCheckAccountingDeviceLedgers(t *testing.T) {
	f, err := New(testConfig(Predictive, ManagerNone))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	f.devs[2].held[High] = 256
	err = f.checkAccounting()
	if err == nil || !strings.Contains(err.Error(), "device 2 class HIGH ledger holds 256 bytes") {
		t.Fatalf("checkAccounting = %v, want the device 2 HIGH ledger named", err)
	}
}

// TestQueueSheds: a tiny queue bound sheds overflow instead of growing
// without limit, and sheds count as rejections.
func TestQueueSheds(t *testing.T) {
	cfg := testConfig(Predictive, ManagerNone)
	cfg.Jobs = 300
	cfg.Devices = 2
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.maxQueue = 3
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Fatal("no sheds despite a 3-deep queue under 300 jobs")
	}
	if rep.Shed > rep.Rejected {
		t.Fatalf("shed %d exceeds rejected %d", rep.Shed, rep.Rejected)
	}
}

// TestBandExcludesLow: with LOW's maxFrac forced to zero, no LOW job is
// ever admitted, while higher classes still complete.
func TestBandExcludesLow(t *testing.T) {
	f, err := New(testConfig(Predictive, ManagerNone))
	if err != nil {
		t.Fatal(err)
	}
	f.bands[High].maxFrac = 0.60
	f.bands[Low] = band{}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	var lowSeen, highDone bool
	for _, j := range f.Jobs() {
		if j.Class == Low {
			lowSeen = true
			if j.State != StateRejected || j.Admissions != 0 {
				t.Fatalf("LOW job %d admitted %d times under a zero band (state %s)", j.ID, j.Admissions, j.State)
			}
		} else if j.State == StateCompleted {
			highDone = true
		}
	}
	if !lowSeen || !highDone {
		t.Fatalf("degenerate scenario: lowSeen=%v highDone=%v", lowSeen, highDone)
	}
}

// TestConfigValidation: broken configs fail fast with telling errors.
func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"no jobs", func(c *Config) { c.Jobs = 0 }, "Jobs"},
		{"no devices", func(c *Config) { c.Devices = 0 }, "Devices"},
		{"no profiler", func(c *Config) { c.Profiler = nil }, "Profiler"},
		{"no menu", func(c *Config) { c.Workloads = nil }, "Workloads"},
		{"bad jitter", func(c *Config) { c.JitterFrac = 1.5 }, "JitterFrac"},
	} {
		cfg := testConfig(Predictive, ManagerNone)
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestProfileSlowdown pins the managed-slowdown interpolation.
func TestProfileSlowdown(t *testing.T) {
	p := Profile{MinCapRatio: 0.4, CapAnchorRatio: 0.7, CapAnchorSlowdown: 1.3}
	if s, ok := p.Slowdown(1.0); !ok || s != 1 {
		t.Errorf("ratio 1: %v %v", s, ok)
	}
	if s, ok := p.Slowdown(0.7); !ok || s < 1.29 || s > 1.31 {
		t.Errorf("anchor ratio: slowdown %v, want 1.3", s)
	}
	if _, ok := p.Slowdown(0.3); ok {
		t.Error("ratio below MinCapRatio reported feasible")
	}
	if s, ok := p.Slowdown(0.85); !ok || s <= 1 || s >= 1.3 {
		t.Errorf("interpolated slowdown %v outside (1, 1.3)", s)
	}
}
