package bench

import (
	"errors"
	"fmt"

	"capuchin/internal/cluster"
	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/models"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
)

// ErrDynamicCluster marks the one unsupported configuration product:
// dynamic shape schedules re-plan per signature on one device, and the
// cluster's window forecast assumes a repeating gradient schedule, so the
// two engines do not compose (yet).
var ErrDynamicCluster = errors.New("dynamic shape schedules are single-device; drop Devices or Schedule")

// ClusterReport carries the multi-device statistics of one run.
type ClusterReport struct {
	// Devices is the replica count.
	Devices int
	// Iters holds the per-iteration cluster statistics; Steady is the
	// last iteration.
	Iters  []cluster.IterStats
	Steady cluster.IterStats
}

// runCluster executes one multi-device configuration: N replicas of the
// model over a shared PCIe-ring interconnect. extra, when non-nil,
// receives the live (replica-grouped) event stream (RunTraced). The
// replicas instantiate their graphs from ts, or, when ts is nil, from a
// set the run owns, so the model is built once however many replicas
// there are. The returned session and policy are replica 0's.
func runCluster(cfg RunConfig, spec models.Spec, res Result, extra obs.Tracer, ts *Templates) (Result, *exec.Session, exec.Policy) {
	if ts == nil {
		ts = NewTemplates()
	}
	var pol exec.Policy
	cl, err := cluster.New(cluster.Config{
		Devices:   cfg.Devices,
		CommAware: !cfg.CommOblivious,
		Tracer:    extra, // the cluster wires each replica's tracer
		Build: func(replica int) (*graph.Graph, error) {
			return ts.Graph(spec, cfg.Mode, cfg.Batch, 0)
		},
		Exec: func(replica int, g *graph.Graph) (exec.Config, error) {
			ec, err := execConfig(cfg, g, nil, nil)
			if err != nil {
				return ec, err
			}
			if replica == 0 {
				pol = ec.Policy
			}
			return ec, nil
		},
	})
	if err != nil {
		res.Err = err
		return res, nil, nil
	}
	stats, err := cl.Run(cfg.Iterations)
	rep := &ClusterReport{Devices: cl.Devices(), Iters: stats}
	res.Cluster = rep
	for _, st := range stats {
		res.Stats = append(res.Stats, firstReplica(st))
	}
	if err != nil {
		res.Err = err
		return res, cl.Replica(0), pol
	}
	res.OK = true
	rep.Steady = stats[len(stats)-1]
	res.Steady = firstReplica(rep.Steady)
	// Throughput counts the global batch: N replicas each step cfg.Batch
	// samples per barrier-to-barrier interval.
	if d := rep.Steady.Duration; d > 0 {
		res.Throughput = float64(cfg.Batch*int64(cl.Devices())) / d.Seconds()
	}
	res.Plan = planSummary(pol)
	return res, cl.Replica(0), pol
}

// firstReplica returns replica 0's iteration statistics, or a zero value
// for an iteration that failed before any replica ran.
func firstReplica(st cluster.IterStats) exec.IterStats {
	if len(st.Replicas) == 0 {
		return exec.IterStats{Iter: st.Iter}
	}
	return st.Replicas[0]
}

// scalingDeviceCounts is the replica-count sweep of the Scaling table.
func scalingDeviceCounts(o Options) []int {
	if len(o.Devices) > 0 {
		return o.Devices
	}
	if o.Quick {
		return []int{1, 2}
	}
	return []int{1, 2, 4, 8}
}

// Scaling measures data-parallel scaling: iteration time with comm-aware
// versus comm-oblivious swap scheduling, exposed communication time, and
// the maximum batch size, for N in the device sweep. The workloads run
// under memory pressure (at the single-device TF-ori maximum batch) so
// swap traffic actually contends with the all-reduce windows.
func Scaling(o Options) *Table {
	o = o.fill()
	t := &Table{
		Title: "Scaling: data-parallel iteration time vs devices (capuchin, PCIe ring)",
		Header: []string{"model", "devices", "iter (aware)", "iter (oblivious)", "saved",
			"exposed comm", "samples/s", "max batch"},
	}
	modelsList := []string{"resnet50", "bert"}
	if o.Quick {
		modelsList = []string{"resnet50"}
	}
	counts := scalingDeviceCounts(o)
	for _, m := range modelsList {
		// Pressure point: the largest batch the unmanaged baseline fits.
		batch := o.Runner.MaxBatch(RunConfig{Model: m, System: SystemTF, Device: o.Device})
		if batch == 0 {
			t.AddNote("%s does not fit at any batch on this device", m)
			continue
		}
		var cfgs []RunConfig
		for _, n := range counts {
			aware := RunConfig{Model: m, Batch: batch, System: SystemCapuchin,
				Device: o.Device, Iterations: o.Iterations, Devices: n}
			obliv := aware
			obliv.CommOblivious = true
			cfgs = append(cfgs, aware, obliv)
		}
		cells := o.Runner.RunAll(cfgs)
		maxes := make([]int64, len(counts))
		for i, n := range counts {
			maxes[i] = o.Runner.MaxBatch(RunConfig{Model: m, System: SystemCapuchin,
				Device: o.Device, Devices: n})
		}
		for i, n := range counts {
			aware, obliv := cells[2*i], cells[2*i+1]
			if !aware.OK || !obliv.OK {
				t.AddRow(m, fmt.Sprintf("%d", n), speedCell(aware), speedCell(obliv), "-", "-", "-", "-")
				continue
			}
			awareIter, oblivIter := iterTime(aware), iterTime(obliv)
			saved := "-"
			if oblivIter > 0 {
				saved = fmt.Sprintf("%.1f%%", 100*(1-float64(awareIter)/float64(oblivIter)))
			}
			exposed := sim.Time(0)
			if aware.Cluster != nil {
				exposed = aware.Cluster.Steady.ExposedComm
			}
			t.AddRow(m, fmt.Sprintf("%d", n),
				awareIter.String(), oblivIter.String(), saved,
				exposed.String(), fmt.Sprintf("%.1f", aware.Throughput),
				maxBatchCell(maxes[i]))
		}
	}
	t.AddNote("comm-aware defers swaps past predicted all-reduce windows; single-device rows are the differential baseline (aware == oblivious by construction)")
	return t
}

// iterTime extracts the steady-state barrier-to-barrier iteration time:
// the cluster duration for multi-device runs, the session duration
// otherwise.
func iterTime(r Result) sim.Time {
	if r.Cluster != nil {
		return r.Cluster.Steady.Duration
	}
	return r.Steady.Duration
}
