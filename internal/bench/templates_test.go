package bench

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"capuchin/internal/cluster"
	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/models"
	"capuchin/internal/obs"
	"capuchin/internal/tensor"
)

// sharedTensor returns a tensor object both graphs hold, or nil.
func sharedTensor(a, b *graph.Graph) *tensor.Tensor {
	own := make(map[*tensor.Tensor]bool, len(a.TensorList()))
	for _, tt := range a.TensorList() {
		own[tt] = true
	}
	for _, tt := range b.TensorList() {
		if own[tt] {
			return tt
		}
	}
	return nil
}

// TestTemplatesSingleFlight races eight goroutines on one key: the set
// builds the model once, and every goroutine gets a graph of its own.
// Requests for the default sequence length share that template, another
// mode builds its own, and a nil set builds without a template.
func TestTemplatesSingleFlight(t *testing.T) {
	const workers = 8
	spec, err := models.Get("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTemplates()
	graphs := make([]*graph.Graph, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			graphs[i], errs[i] = ts.Graph(spec, exec.GraphMode, int64(8*(i+1)), 0)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if i > 0 {
			if x := sharedTensor(graphs[0], graphs[i]); x != nil {
				t.Errorf("workers 0 and %d share tensor %s", i, x.ID)
			}
		}
	}
	if n := ts.builds.Load(); n != 1 {
		t.Fatalf("%d racing requests for one key built %d templates, want 1", workers, n)
	}

	if _, err := ts.Graph(spec, exec.EagerMode, 8, 0); err != nil {
		t.Fatal(err)
	}
	bert, err := models.Get("bert")
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []int64{0, bert.DefaultSeq, 0} {
		if _, err := ts.Graph(bert, exec.GraphMode, 2, seq); err != nil {
			t.Fatal(err)
		}
	}
	if n := ts.builds.Load(); n != 3 {
		t.Errorf("builds = %d after alexnet graph+eager and bert at its default length, want 3", n)
	}

	var oneShot *Templates
	g, err := oneShot.Graph(spec, exec.GraphMode, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x := sharedTensor(g, graphs[0]); x != nil {
		t.Errorf("a nil set's build shares tensor %s with an instance", x.ID)
	}
}

// TestTemplateSetDiesWithItsOwner: the template source a Runner holds
// while searches are in flight is garbage once the last search returns,
// though the Runner lives on. Two concurrent MaxBatch calls, made to
// overlap, and a MaxBatchAll call of the same two searches each build
// the one model and mode's template once, from one source, and each
// search keeps a set of spares of its own. This pins maxbatch heap_mb:
// no template outlives the searches in flight.
func TestTemplateSetDiesWithItsOwner(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two max-batch searches")
	}
	tf := RunConfig{Model: "alexnet", System: SystemTF, Device: smallDev(), Iterations: 1}
	capu := tf
	capu.System = SystemCapuchin
	for _, c := range []struct {
		name string
		call func(r *Runner) []int64
	}{
		{"MaxBatch", func(r *Runner) []int64 {
			out := make([]int64, 2)
			var wg sync.WaitGroup
			for i, cfg := range []RunConfig{tf, capu} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out[i] = r.MaxBatch(cfg)
				}()
			}
			wg.Wait()
			return out
		}},
		{"MaxBatchAll", func(r *Runner) []int64 { return r.MaxBatchAll([]RunConfig{tf, capu}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewRunner(2)
			freed := make(chan struct{})
			// Each search's first cell waits until the other's has
			// started, so the two searches are in flight together.
			var started sync.WaitGroup
			started.Add(2)
			var mu sync.Mutex
			// Addresses only, so they keep nothing alive: the source
			// every cell's set takes its templates from, and each search's set.
			var source uintptr
			sets := make(map[uintptr]bool)
			var builds int64
			var strays int
			r.runFn = func(cfg RunConfig, tr obs.Tracer, ts *Templates) Result {
				set, src := reflect.ValueOf(ts).Pointer(), reflect.ValueOf(ts.from).Pointer()
				mu.Lock()
				switch {
				case source == 0:
					source = src
					runtime.SetFinalizer(ts.from, func(*Templates) { close(freed) })
				case src != source:
					strays++
				}
				first := !sets[set]
				sets[set] = true
				mu.Unlock()
				if first {
					started.Done()
					started.Wait()
				}
				res, _, _ := run(cfg, tr, ts)
				mu.Lock()
				builds = max(builds, ts.from.builds.Load())
				mu.Unlock()
				return res
			}
			for _, b := range c.call(r) {
				if b < 2 {
					t.Fatalf("a search answered %d; the check needs searches that probe", b)
				}
			}
			if strays != 0 {
				t.Errorf("%d cells took their templates from another source", strays)
			}
			if builds != 1 {
				t.Errorf("the searches built %d templates of one model and mode, want 1", builds)
			}
			if len(sets) != 2 {
				t.Errorf("two searches ran on %d sets of spares, want 2", len(sets))
			}
			for i := 0; ; i++ {
				runtime.GC()
				select {
				case <-freed:
					runtime.KeepAlive(r)
					return
				case <-time.After(10 * time.Millisecond):
				}
				if i == 100 {
					t.Fatal("the runner's template source is still reachable after its last search returned")
				}
			}
		})
	}
}

// clusterReference runs cfg's cluster the way runCluster does, with each
// replica's graph from build, and returns its statistics and replica
// graphs.
func clusterReference(t *testing.T, cfg RunConfig, build func() (*graph.Graph, error)) ([]cluster.IterStats, []*graph.Graph) {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Devices:   cfg.Devices,
		CommAware: !cfg.CommOblivious,
		Build:     func(int) (*graph.Graph, error) { return build() },
		Exec: func(_ int, g *graph.Graph) (exec.Config, error) {
			return execConfig(cfg, g, nil, nil)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Run(cfg.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	graphs := make([]*graph.Graph, cl.Devices())
	for i := range graphs {
		graphs[i] = cl.Replica(i).Graph()
	}
	return stats, graphs
}

// TestTemplatedClusterMatchesBuild: a cluster run's replicas instantiate
// one template, and the run's statistics, fingerprints included, equal
// those of a cluster whose every replica builds its own graph. Replicas
// from one template share no tensor.
func TestTemplatedClusterMatchesBuild(t *testing.T) {
	cfg := RunConfig{Model: "resnet50", Batch: 32, System: SystemCapuchin,
		Device: smallDev(), Iterations: 3, Devices: 2}
	spec, err := models.Get(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := clusterReference(t, cfg, func() (*graph.Graph, error) {
		return spec.BuildShaped(cfg.Batch, 0, buildOptions(cfg.Mode))
	})
	if want[len(want)-1].Replicas[0].SwapOutCount == 0 {
		t.Error("the reference never swapped; the check is too weak")
	}
	ts := NewTemplates()
	res, _, _ := run(cfg, nil, ts)
	if !res.OK {
		t.Fatal(res.Err)
	}
	if !reflect.DeepEqual(res.Cluster.Iters, want) {
		t.Errorf("templated cluster stats differ from built replicas':\ngot:  %+v\nwant: %+v", res.Cluster.Iters, want)
	}
	for i, st := range want {
		if !reflect.DeepEqual(res.Stats[i], st.Replicas[0]) {
			t.Errorf("iteration %d: replica-0 stats %+v, want %+v", i, res.Stats[i], st.Replicas[0])
		}
	}
	if n := ts.builds.Load(); n != 1 {
		t.Errorf("%d replicas built %d templates, want 1", cfg.Devices, n)
	}
	if own := Run(cfg); !reflect.DeepEqual(own.Cluster.Iters, want) {
		t.Error("a cluster run on its own set diverged from built replicas")
	}

	// The replicas' graphs, instantiated as runCluster instantiates them.
	_, graphs := clusterReference(t, cfg, func() (*graph.Graph, error) {
		return ts.Graph(spec, cfg.Mode, cfg.Batch, 0)
	})
	if x := sharedTensor(graphs[0], graphs[1]); x != nil {
		t.Errorf("replicas share tensor %s", x.ID)
	}
}

// TestTemplatedDynamicMatchesBuild: a dynamic run under a sequence-length
// schedule instantiates each new signature's graph from the template of
// its length, and its statistics, fingerprints and per-bucket aggregates
// included, equal those of a dynamic session that builds every
// signature's graph.
func TestTemplatedDynamicMatchesBuild(t *testing.T) {
	cfg := RunConfig{Model: "bert", Batch: 8, System: SystemCapuchin,
		Device: hw.P100().WithMemory(4 * hw.GiB), Iterations: 8,
		Schedule: models.ScheduleSeq, ScheduleSeed: 3}
	spec, err := models.Get(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := models.NewSchedule(cfg.Schedule, spec, cfg.Batch, cfg.ScheduleSeed, cfg.SchedulePeriod)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := execConfig(cfg, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := exec.NewDynamicSession(exec.DynamicConfig{
		Base: ec,
		Build: func(batch, seq int64) (*graph.Graph, error) {
			return spec.BuildShaped(batch, seq, buildOptions(cfg.Mode))
		},
		Schedule: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Run(cfg.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make(map[int64]bool)
	for _, b := range d.Buckets() {
		seqs[b.Seq] = true
	}
	if len(seqs) < 2 {
		t.Fatalf("the schedule visited %d sequence lengths; the check needs two or more", len(seqs))
	}

	ts := NewTemplates()
	res, _, _ := run(cfg, nil, ts)
	if !res.OK {
		t.Fatal(res.Err)
	}
	if !reflect.DeepEqual(res.Stats, want) {
		t.Errorf("templated dynamic stats differ from built signatures':\ngot:  %+v\nwant: %+v", res.Stats, want)
	}
	if !reflect.DeepEqual(res.Dynamic.Stats, d.Stats()) || !reflect.DeepEqual(res.Dynamic.Buckets, d.Buckets()) {
		t.Errorf("dynamic report differs:\ngot:  %+v %+v\nwant: %+v %+v",
			res.Dynamic.Stats, res.Dynamic.Buckets, d.Stats(), d.Buckets())
	}
	if n := ts.builds.Load(); n != int64(len(seqs)) {
		t.Errorf("%d sequence lengths built %d templates", len(seqs), n)
	}
	if own := Run(cfg); !reflect.DeepEqual(own.Stats, want) {
		t.Error("a dynamic run on its own set diverged from built signatures")
	}
}
