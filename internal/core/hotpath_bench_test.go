package core

import (
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/models"
)

// recorder is Capuchin with a tap on its measured iteration: it keeps the
// access stream and the planner's inputs so a benchmark can replay them.
type recorder struct {
	*Capuchin
	accesses []exec.Access
	pl       planner
}

func (r *recorder) OnAccess(acc exec.Access, env *exec.Env) {
	if r.measuring {
		r.accesses = append(r.accesses, acc)
	}
	r.Capuchin.OnAccess(acc, env)
}

func (r *recorder) EndIteration(iter int, env *exec.Env) {
	if r.measuring {
		r.pl = planner{
			opts:     r.opts,
			capacity: env.DeviceMemory(),
			params:   paramResident(env),
			swapOut:  env.SwapOutDuration,
			swapIn:   env.SwapInDuration,
		}
	}
	r.Capuchin.EndIteration(iter, env)
}

// BenchmarkHotPathPlan is the Policy Maker's cost per plan: one recorded
// measured iteration of BERT at batch 128 on a 16 GiB P100, a cell that
// both swaps and recomputes, replayed into a fresh tracker and planner.
// It covers the tracker's per-access work, candidate identification,
// Algorithm 1's selection loop with Algorithm 2's MSPS upkeep, and
// in-trigger scheduling. The alloc gate (make perf-smoke) budgets it.
func BenchmarkHotPathPlan(b *testing.B) { benchPlan(b, "bert", 128) }

// BenchmarkHotPathPlanLarge is BenchmarkHotPathPlan on the measured
// iteration of Table 2's resnet152 answer, batch 1255 on a 16 GiB P100:
// several thousand accesses and the largest selection of the sweep,
// where a planner quadratic in the candidate count shows.
func BenchmarkHotPathPlanLarge(b *testing.B) { benchPlan(b, "resnet152", 1255) }

// benchPlan records the measured iteration of model at batch on a
// 16 GiB P100 under Capuchin and replays it into a fresh tracker and
// planner per op.
func benchPlan(b *testing.B, model string, batch int64) {
	spec, err := models.Get(model)
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Build(batch, graph.GraphModeOptions())
	if err != nil {
		b.Fatal(err)
	}
	rec := &recorder{Capuchin: New(Options{})}
	s, err := exec.NewSession(g, exec.Config{Device: hw.P100(), Policy: rec, CollectiveRecompute: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(1); err != nil {
		b.Fatal(err)
	}
	if sum := rec.Summary(); sum.SwapTensors == 0 || sum.RecomputeCount == 0 {
		b.Fatalf("cell no longer swaps and recomputes: %v", sum)
	}
	n, nodes := len(g.TensorList()), len(g.Nodes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk := newTracker(n, nodes)
		for _, acc := range rec.accesses {
			tk.observe(acc)
		}
		tk.finish()
		pl := rec.pl
		pl.tk = tk
		if p := pl.build(); p.numSwap != rec.plan.numSwap {
			b.Fatalf("replayed plan swaps %d tensors, want %d", p.numSwap, rec.plan.numSwap)
		}
	}
}
