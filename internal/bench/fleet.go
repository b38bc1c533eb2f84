package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"capuchin/internal/fleet"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
)

// fleetWorkloads is the fleet experiment's job menu: heterogeneous model
// families (plain CNNs, depthwise-separable CNNs, a transformer, a
// recurrent net) at batch ladders whose peaks span a wide range, so
// bin-packing faces genuinely mixed footprints.
func fleetWorkloads(quick bool) []fleet.Workload {
	if quick {
		// Sized to the goldens' 4 GiB device slice: peaks well under the
		// device, so contention comes from packing, not single-job fit.
		return []fleet.Workload{
			{Model: "resnet50", Batch: 16},
			{Model: "mobilenetv2", Batch: 32},
			{Model: "lstm", Batch: 4},
		}
	}
	return []fleet.Workload{
		{Model: "resnet50", Batch: 32},
		{Model: "resnet50", Batch: 96},
		{Model: "vgg16", Batch: 32},
		{Model: "inceptionv3", Batch: 48},
		{Model: "mobilenetv2", Batch: 64},
		{Model: "lstm", Batch: 32},
		{Model: "bert", Batch: 8},
		{Model: "alexnet", Batch: 128},
	}
}

// profileSteadyIters is the length of a profiling chain's runs: the
// uncapped TF-ori run whose last iteration is the steady profile, and the
// Capuchin cap-anchor runs.
const profileSteadyIters = 4

// ExecProfiler implements fleet.Profiler on the real executor. Each
// workload is profiled as one chain of cells on the shared Runner: a
// single uncapped TF-ori run of profileSteadyIters iterations, whose last
// iteration is the steady profile and whose first fleet.DefaultWarmupIters
// iterations are the sandbox warmup (Session.Run is a plain loop, so that
// prefix is exactly what a warmup-length run would report), then the
// Capuchin cap anchors under a capped device. The chain's cells take their
// graphs from one template set, and every cell goes through the Runner's
// cache, so repeated workloads across the three fleet scenarios simulate
// once. Profile is safe for concurrent use: chains for different
// workloads run side by side, bounded by the Runner's slots.
type ExecProfiler struct {
	Runner *Runner
	// Device is the fleet's device model; profiling runs on an uncapped
	// (256 GiB) variant so the sandbox never OOMs.
	Device hw.DeviceSpec

	mu    sync.Mutex
	cache map[fleet.Workload]fleet.Profile
}

var _ fleet.Profiler = (*ExecProfiler)(nil)

// Profile implements fleet.Profiler. The call owns the template set its
// chain instantiates from.
func (p *ExecProfiler) Profile(w fleet.Workload) (fleet.Profile, error) {
	return p.profile(w, NewTemplates())
}

// profile is Profile with the template set of the profiling's owner:
// fleetSetup shares one across the menu, so menu entries of one model
// build its template once.
func (p *ExecProfiler) profile(w fleet.Workload, ts *Templates) (fleet.Profile, error) {
	p.mu.Lock()
	if prof, ok := p.cache[w]; ok {
		p.mu.Unlock()
		return prof, nil
	}
	p.mu.Unlock()

	// Every cell below is w's model in graph mode: one template.
	cell := func(sys System, dev hw.DeviceSpec) Result {
		return p.Runner.runCell(p.Runner.ctx, RunConfig{
			Model: w.Model, Batch: w.Batch, System: sys, Device: dev, Iterations: profileSteadyIters,
		}, ts)
	}

	steady := cell(SystemTF, p.Device.WithMemory(256*hw.GiB))
	if !steady.OK {
		return fleet.Profile{}, fmt.Errorf("bench: profiling %v failed: %v", w, steady.Err)
	}
	prof := fleet.Profile{
		// The allocator high-water mark after the warmup prefix is the
		// prediction input.
		WarmupPeak: steady.Stats[fleet.DefaultWarmupIters-1].PeakBytes,
		SteadyPeak: steady.Steady.PeakBytes,
		IterTime:   steady.Steady.Duration,
		// Until a cap run succeeds, the workload reports as uncappable.
		MinCapRatio:       1,
		CapAnchorRatio:    1,
		CapAnchorSlowdown: 1,
	}

	// Cap anchor: run Capuchin under a capped device at descending
	// ratios; the first that survives anchors the managed-slowdown
	// model, and feasibility extends a step below it.
	for _, ratio := range []float64{0.7, 0.85} {
		res := cell(SystemCapuchin, p.Device.WithMemory(int64(float64(prof.SteadyPeak)*ratio)))
		if !res.OK {
			continue
		}
		slow := float64(res.Steady.Duration) / float64(prof.IterTime)
		if slow < 1 {
			slow = 1
		}
		prof.CapAnchorRatio = ratio
		prof.CapAnchorSlowdown = slow
		prof.MinCapRatio = ratio - 0.15
		break
	}

	p.mu.Lock()
	if p.cache == nil {
		p.cache = make(map[fleet.Workload]fleet.Profile)
	}
	p.cache[w] = prof
	p.mu.Unlock()
	return prof, nil
}

// fanOut calls fn(0) … fn(n-1) concurrently, at most limit at a time,
// and returns the error of the lowest index that failed: callers write
// results by index, so neither output nor error depends on scheduling.
func fanOut(n, limit int, fn func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// FleetOptions parameterizes the fleet experiment beyond the shared
// bench Options.
type FleetOptions struct {
	// Jobs is the arrival-stream length (0 = 1200; quick 250).
	Jobs int
	// Devices is the simulated device count (0 = 48; quick 8).
	Devices int
	// Seed drives the arrival stream (0 = 1).
	Seed uint64
}

func (fo FleetOptions) fill(quick bool) FleetOptions {
	if fo.Jobs == 0 {
		fo.Jobs = 1200
		if quick {
			fo.Jobs = 250
		}
	}
	if fo.Devices == 0 {
		fo.Devices = 48
		if quick {
			fo.Devices = 8
		}
	}
	if fo.Seed == 0 {
		fo.Seed = 1
	}
	return fo
}

// FleetComparison is the fleet experiment's machine-readable result: the
// three scenarios (admit-all baseline, predictive admission, predictive
// plus Capuchin-managed jobs) over one identical arrival stream. It is
// fully determined by (Options.Device, Options.Quick, FleetOptions) and
// marshals to stable JSON — the BENCH_fleet.json contract.
type FleetComparison struct {
	// Meta is the run's provenance block. It is deterministic for a
	// fixed checkout (no wall-clock unless explicitly stamped), so the
	// artifact's byte-stability contract extends over it.
	Meta    RunMeta        `json:"meta"`
	Device  string         `json:"device"`
	Jobs    int            `json:"jobs"`
	Devices int            `json:"devices"`
	Seed    uint64         `json:"seed"`
	Menu    []string       `json:"menu"`
	Runs    []fleet.Report `json:"runs"`
}

// WriteJSON writes the comparison as indented JSON.
func (fc FleetComparison) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fc)
}

// fleetSetup is the scenario assembly shared by FleetScenarios and
// FleetObserved: profile the menu on the real executor and tune the
// arrival rate to the profiled workloads so the fleet is genuinely
// contended at any size — offered load ≈ 1.4× capacity. Each menu entry
// is profiled as one chain on its own goroutine; the Runner's slots bound
// how many cells simulate at once, and an error is the earliest failing
// menu entry's. The setup owns one template set for the whole menu,
// garbage once it returns.
func fleetSetup(o Options, fo FleetOptions) (menu []fleet.Workload, prof *ExecProfiler, mean sim.Time, err error) {
	menu = fleetWorkloads(o.Quick)
	prof = &ExecProfiler{Runner: o.Runner, Device: o.Device}
	profs := make([]fleet.Profile, len(menu))
	ts := NewTemplates()
	if err := fanOut(len(menu), len(menu), func(i int) (err error) {
		profs[i], err = prof.profile(menu[i], ts)
		return err
	}); err != nil {
		return nil, nil, 0, err
	}

	var work float64 // mean job demand in byte-seconds
	for _, pr := range profs {
		work += float64(float64(pr.SteadyPeak) * (70 * pr.IterTime).Seconds()) // 70 = mean iters
	}
	work /= float64(len(menu))
	fleetBytes := float64(fo.Devices) * float64(o.Device.MemoryBytes)
	mean = sim.Time(work / fleetBytes / 1.4 * float64(sim.Second))
	if mean < sim.Millisecond {
		mean = sim.Millisecond
	}
	return menu, prof, mean, nil
}

// fleetConfig assembles one scenario's fleet.Config over the shared
// setup.
func fleetConfig(o Options, fo FleetOptions, menu []fleet.Workload, prof fleet.Profiler, mean sim.Time,
	mode fleet.AdmissionMode, mgr fleet.Manager) fleet.Config {
	return fleet.Config{
		Seed:             fo.Seed,
		Jobs:             fo.Jobs,
		Devices:          fo.Devices,
		DeviceMemory:     o.Device.MemoryBytes,
		Admission:        mode,
		Manager:          mgr,
		Profiler:         prof,
		Workloads:        menu,
		MeanInterarrival: mean,
		JitterFrac:       0.25,
	}
}

// fleetMeta is the deterministic provenance block of a fleet artifact.
func fleetMeta(o Options, fo FleetOptions) RunMeta {
	return NewRunMeta("capuchin-bench -exp fleet", fo.Seed, o.Quick,
		fmt.Sprintf("device=%s", o.Device.Name),
		fmt.Sprintf("mem-gib=%d", o.Device.MemoryBytes/hw.GiB),
		fmt.Sprintf("fleet-jobs=%d", fo.Jobs),
		fmt.Sprintf("fleet-devices=%d", fo.Devices),
		fmt.Sprintf("fleet-seed=%d", fo.Seed))
}

// FleetScenarios profiles the menu on the real executor and runs the
// three fleet scenarios over one identical seeded arrival stream.
func FleetScenarios(o Options, fo FleetOptions) (FleetComparison, error) {
	o = o.fill()
	fo = fo.fill(o.Quick)
	menu, prof, mean, err := fleetSetup(o, fo)
	if err != nil {
		return FleetComparison{}, err
	}

	fc := FleetComparison{
		Meta:    fleetMeta(o, fo),
		Device:  fmt.Sprintf("%s @ %d GiB x%d", o.Device.Name, o.Device.MemoryBytes/hw.GiB, fo.Devices),
		Jobs:    fo.Jobs,
		Devices: fo.Devices,
		Seed:    fo.Seed,
	}
	for _, w := range menu {
		fc.Menu = append(fc.Menu, w.String())
	}
	// The scenarios are independent — each fleet owns its state and the
	// profiler's cache is locked — so they run side by side on the
	// Runner's slot count, landing in fc.Runs by index.
	scenarios := []struct {
		mode fleet.AdmissionMode
		mgr  fleet.Manager
	}{
		{fleet.AdmitAll, fleet.ManagerNone},
		{fleet.Predictive, fleet.ManagerNone},
		{fleet.Predictive, fleet.ManagerCapuchin},
	}
	fc.Runs = make([]fleet.Report, len(scenarios))
	if err := fanOut(len(scenarios), o.Runner.Jobs(), func(i int) error {
		f, err := fleet.New(fleetConfig(o, fo, menu, prof, mean, scenarios[i].mode, scenarios[i].mgr))
		if err != nil {
			return err
		}
		fc.Runs[i], err = f.Run()
		return err
	}); err != nil {
		return FleetComparison{}, err
	}
	return fc, nil
}

// FleetObserved runs the flagship scenario — predictive admission with
// Capuchin-managed jobs — over the same setup as FleetScenarios with the
// full observability stack attached: tracer receives the fleet timeline
// and decision audit. It also returns the run's own metrics registry
// (fleet.Fleet.Metrics). Tracing is outcome-neutral: the returned report
// is byte-identical to the corresponding FleetScenarios run.
func FleetObserved(o Options, fo FleetOptions, tracer obs.Tracer) (fleet.Report, *obs.Metrics, error) {
	o = o.fill()
	fo = fo.fill(o.Quick)
	menu, prof, mean, err := fleetSetup(o, fo)
	if err != nil {
		return fleet.Report{}, nil, err
	}
	cfg := fleetConfig(o, fo, menu, prof, mean, fleet.Predictive, fleet.ManagerCapuchin)
	cfg.Tracer = tracer
	f, err := fleet.New(cfg)
	if err != nil {
		return fleet.Report{}, nil, err
	}
	rep, err := f.Run()
	return rep, f.Metrics(), err
}

// Fleet runs the multi-tenant fleet experiment: a seeded stochastic
// stream of training jobs over simulated devices, comparing admit-all
// scheduling, OOM-prediction admission control, and predictive admission
// with Capuchin-managed jobs. Rows are assembled serially from one
// deterministic simulation, so the table is byte-identical at any -jobs.
func Fleet(o Options) *Table {
	return FleetTable(o, FleetOptions{})
}

// FleetTable is Fleet with explicit fleet parameters (the CLI's
// -fleet-jobs / -fleet-devices / -fleet-seed flags).
func FleetTable(o Options, fo FleetOptions) *Table {
	fc, err := FleetScenarios(o, fo)
	if err != nil {
		t := fleetTableShell()
		t.AddNote("fleet experiment failed: %v", err)
		return t
	}
	return FleetTableFrom(fc)
}

func fleetTableShell() *Table {
	return &Table{
		Title: "Fleet: multi-tenant scheduling, OOM-prediction admission vs admit-all",
		Header: []string{"scenario", "completed", "rejected", "kills", "kill rate",
			"preempt", "absorbs", "pred err", "util", "goodput", "p50 JCT", "p99 JCT"},
	}
}

// FleetTableFrom renders an already-computed comparison, so a caller
// needing both the table and the JSON artifact simulates once.
func FleetTableFrom(fc FleetComparison) *Table {
	t := fleetTableShell()
	for _, r := range fc.Runs {
		name := r.Mode
		if r.Manager != "none" {
			name += "+" + r.Manager
		}
		t.AddRow(name,
			fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%d", r.Rejected),
			fmt.Sprintf("%d", r.Kills),
			fmt.Sprintf("%.1f%%", r.KillRatePct),
			fmt.Sprintf("%d", r.Preemptions),
			fmt.Sprintf("%d", r.CapAbsorbs),
			fmt.Sprintf("%.1f%%", r.MeanAbsPredErrPct),
			fmt.Sprintf("%.1f%%", r.UtilizationPct),
			fmt.Sprintf("%.1f%%", r.GoodputPct),
			fmt.Sprintf("%.0fms", r.P50JCTMillis),
			fmt.Sprintf("%.0fms", r.P99JCTMillis))
	}
	t.AddNote("%d jobs over %d devices (%s), one identical seeded arrival stream per scenario", fc.Jobs, fc.Devices, fc.Device)
	if len(fc.Runs) == 3 {
		base, pred, cap := fc.Runs[0], fc.Runs[1], fc.Runs[2]
		if base.Completed > 0 {
			t.AddNote("capacity uplift: %.2fx the admit-all baseline's completions (%d vs %d jobs on the same fleet)",
				float64(cap.Completed)/float64(base.Completed), cap.Completed, base.Completed)
		}
		t.AddNote("predictive admission cuts the OOM-kill rate %.1f%% -> %.1f%% (capuchin-managed: %.1f%%)",
			base.KillRatePct, pred.KillRatePct, cap.KillRatePct)
	}
	return t
}
