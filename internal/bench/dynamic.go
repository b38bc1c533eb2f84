package bench

import (
	"fmt"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/models"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
)

// This file wires the dynamic workload engine (exec.DynamicSession) into
// the harness: RunConfig.Schedule routes a run through per-signature
// sessions with online re-planning, and the Dynamic experiment measures
// what the paper's §3 motivation costs and buys — overhead of drifting
// shapes versus the static anchor, re-plan counts, per-bucket coverage,
// and the maximum batch size sustainable under drift.

// DynamicReport carries the dynamic engine's outcome alongside the
// ordinary per-iteration stats.
type DynamicReport struct {
	// Stats counts the engine's structural events (switches, re-plans,
	// plan-cache hits, staleness invalidations).
	Stats exec.DynamicStats
	// Buckets aggregates per shape signature, in first-seen order; the
	// first bucket is always the schedule's anchor shape.
	Buckets []exec.BucketStats
}

// runDynamic executes one configuration through the dynamic engine. It
// mirrors the static tail of Run: stats, steady state, throughput and
// plan summary are populated the same way, plus the DynamicReport.
// extra, when non-nil, receives the live event stream (RunTraced). Each
// new shape signature instantiates its graph from the template of its
// sequence length in ts, or, when ts is nil, in a set the run owns.
func runDynamic(cfg RunConfig, spec models.Spec, res Result, extra obs.Tracer, ts *Templates) (Result, *exec.Session, exec.Policy) {
	if ts == nil {
		ts = NewTemplates()
	}
	sched, err := models.NewSchedule(cfg.Schedule, spec, cfg.Batch, cfg.ScheduleSeed, cfg.SchedulePeriod)
	if err != nil {
		res.Err = err
		return res, nil, nil
	}
	ec, err := execConfig(cfg, nil, nil, extra)
	if err != nil {
		res.Err = err
		return res, nil, nil
	}
	d, err := exec.NewDynamicSession(exec.DynamicConfig{
		Base: ec,
		Build: func(batch, seq int64) (*graph.Graph, error) {
			return ts.Graph(spec, cfg.Mode, batch, seq)
		},
		Schedule: sched,
	})
	if err != nil {
		res.Err = err
		return res, nil, nil
	}
	stats, err := d.Run(cfg.Iterations)
	res.Stats = stats
	res.Dynamic = &DynamicReport{Stats: d.Stats(), Buckets: d.Buckets()}
	if err != nil {
		res.Err = err
		return res, d.Active(), ec.Policy
	}
	res.OK = true
	res.Steady = stats[len(stats)-1]
	steadyBatch, _ := sched.At(cfg.Iterations - 1)
	res.Throughput = res.Steady.Throughput(steadyBatch)
	res.Plan = planSummary(ec.Policy)
	return res, d.Active(), ec.Policy
}

// dynamicWorkloads picks the models the Dynamic experiment drives: batch
// drift on a CNN everywhere, plus mixed batch/sequence drift on the
// unrolled LSTM outside quick mode (the NLP bucketing case of §3).
func dynamicWorkloads(o Options) []struct {
	model, kind string
} {
	w := []struct{ model, kind string }{{"resnet50", o.Schedule}}
	if !o.Quick {
		w = append(w, struct{ model, kind string }{"lstm", models.ScheduleMixed})
	}
	return w
}

// Dynamic evaluates dynamic-shape training (§3): per workload it runs the
// original framework at its maximum static batch and Capuchin at 1.5x
// that, both under a drifting shape schedule, and reports how often the
// plan was rebuilt, how the anchor bucket's iteration time compares to a
// static run of the same configuration, and the maximum batch size each
// system sustains with shapes drifting.
func Dynamic(o Options) *Table {
	o = o.fill()
	t := &Table{
		Title: fmt.Sprintf("Dynamic shapes: online re-planning under a %q schedule (seed %d)",
			o.Schedule, o.ScheduleSeed),
		Header: []string{"model", "system", "batch", "sigs", "re-plans", "cache hits",
			"anchor iter", "static iter", "overhead", "max batch (drift)"},
	}
	iters := o.Iterations
	if iters < 6 {
		iters = 6 // enough epochs for the sampler to leave the anchor shape
	}
	for _, wl := range dynamicWorkloads(o) {
		tfMax := o.Runner.MaxBatch(RunConfig{Model: wl.model, System: SystemTF, Device: o.Device})
		if tfMax == 0 {
			t.AddNote("%s: nothing fits statically on this device", wl.model)
			continue
		}
		rows := []struct {
			sys   System
			batch int64
		}{
			{SystemTF, tfMax},
			{SystemCapuchin, tfMax * 3 / 2},
		}
		for _, rw := range rows {
			base := RunConfig{Model: wl.model, Batch: rw.batch, System: rw.sys,
				Device: o.Device, Iterations: iters}
			dynCfg := base
			dynCfg.Schedule = wl.kind
			dynCfg.ScheduleSeed = o.ScheduleSeed
			pair := o.Runner.RunAll([]RunConfig{dynCfg, base})
			dyn, static := pair[0], pair[1]
			maxCfg := RunConfig{Model: wl.model, System: rw.sys, Device: o.Device,
				Iterations: iters, Schedule: wl.kind, ScheduleSeed: o.ScheduleSeed}
			maxDrift := o.Runner.MaxBatch(maxCfg)
			if !dyn.OK {
				t.AddRow(wl.model, string(rw.sys), fmt.Sprintf("%d", rw.batch),
					"-", "-", "-", "OOM", speedCell(static), "-", fmt.Sprintf("%d", maxDrift))
				continue
			}
			anchor := dyn.Dynamic.Buckets[0]
			anchorIter := anchor.Duration / sim.Time(anchor.Iterations)
			overhead := "-"
			staticIter := "OOM"
			if static.OK {
				staticIter = static.Steady.Duration.String()
				overhead = fmt.Sprintf("%+.1f%%",
					(float64(anchorIter)/float64(static.Steady.Duration)-1)*100)
			}
			t.AddRow(wl.model, string(rw.sys), fmt.Sprintf("%d", rw.batch),
				fmt.Sprintf("%d", dyn.Dynamic.Stats.Signatures),
				fmt.Sprintf("%d", dyn.Dynamic.Stats.Replans),
				fmt.Sprintf("%d", dyn.Dynamic.Stats.PlanCacheHits),
				anchorIter.String(), staticIter, overhead,
				fmt.Sprintf("%d", maxDrift))
		}
	}
	t.AddNote("anchor iter averages the base-shape bucket, re-measured passes included — " +
		"that inclusion IS the online re-planning overhead")
	t.AddNote("paper §3: eager mode and NLP bucketing change tensor shapes between iterations; " +
		"Capuchin re-plans per shape signature and caches plans for recurring buckets")
	return t
}
