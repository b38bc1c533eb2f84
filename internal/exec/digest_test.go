package exec

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"capuchin/internal/fault"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/models"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
)

// nopTracer drops every record. Attached, it makes Run simulate every
// iteration and changes nothing else: the reference for a skipping run.
type nopTracer struct{}

func (nopTracer) Emit(obs.Event)      {}
func (nopTracer) Decide(obs.Decision) {}

// phasedPolicy swaps out every activation a forward node reads for its
// first left iterations, then stops. Its iterations differ until the
// counter runs out, so it must fold the counter into its digest.
type phasedPolicy struct {
	NullPolicy
	left int
}

func (p *phasedPolicy) OnAccess(acc Access, env *Env) {
	if p.left > 0 && acc.Kind == Read && acc.Node.Phase == graph.Forward {
		env.SwapOutAsync(acc.Tensor)
	}
}

func (p *phasedPolicy) EndIteration(int, *Env) {
	if p.left > 0 {
		p.left--
	}
}

func (p *phasedPolicy) AppendStateDigest(dst []byte) []byte { return append(dst, byte(p.left)) }

// sessionState is what a caller of Run can observe of a session
// afterwards, besides the stats: the iteration counter, every stream
// clock, the gradient schedule and each parameter's fingerprint and
// access counters.
type sessionState struct {
	Iter    int
	Clocks  []sim.Time
	Grads   []GradEvent
	Params  [][3]int64
	Pending int
}

func stateOf(s *Session) sessionState {
	st := sessionState{Iter: s.iter, Grads: s.GradSchedule(), Pending: s.pendingFrees.Len()}
	for _, str := range []*sim.Stream{s.compute, s.h2d, s.d2h, s.cpu} {
		if str != nil {
			st.Clocks = append(st.Clocks, str.AvailableAt())
		}
	}
	for _, t := range s.tlist {
		if t.Persistent {
			st.Params = append(st.Params, [3]int64{int64(t.Fingerprint), int64(t.AccessCount), int64(t.LastAccess)})
		}
	}
	return st
}

// skipCase is one session configuration of the differential test, with
// the iterations a 5-iteration Run of it simulates when nothing traces
// it.
type skipCase struct {
	name      string
	mode      Mode
	mem       int64
	allocator string
	coupled   bool
	policy    func() Policy
	simulated int64
}

func skipCases() []skipCase {
	null := func() Policy { return NullPolicy{} }
	phased := func() Policy { return &phasedPolicy{left: 2} }
	return []skipCase{
		{name: "tf-ori", mem: 4 * hw.GiB, policy: null, simulated: 1},
		{name: "tf-ori/firstfit", mem: 4 * hw.GiB, allocator: "firstfit", policy: null, simulated: 1},
		// The eager dispatch stream runs free of the compute stream, so
		// its clock never repeats relative to the barrier.
		{name: "tf-ori/eager", mode: EagerMode, mem: 4 * hw.GiB, policy: null, simulated: 5},
		{name: "tf-ori/oom", mem: 24 * hw.MiB, policy: null, simulated: 1},
		{name: "phased", mem: 4 * hw.GiB, policy: phased, simulated: 3},
		{name: "phased/coupled", mem: 4 * hw.GiB, coupled: true, policy: phased, simulated: 3},
		{name: "phased/eager", mode: EagerMode, mem: 4 * hw.GiB, policy: phased, simulated: 5},
	}
}

// newSkipSession builds c's session on a new graph, traced when tr is
// non-nil.
func newSkipSession(t *testing.T, c skipCase, tr obs.Tracer) *Session {
	t.Helper()
	opt := graph.GraphModeOptions()
	if c.mode == EagerMode {
		opt = graph.EagerModeOptions()
	}
	s, err := NewSession(testCNN(t, opt), Config{
		Device: device(c.mem), Mode: c.mode, Allocator: c.allocator,
		CoupledSwap: c.coupled, Policy: c.policy(), Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunSkipMatchesTraced is the skip's differential proof on small
// sessions: a Run that may skip and a traced Run give the same stats and
// error, leave the same session behind, and agree on one more
// RunIteration afterwards. The phased policy needs its digest (dropping
// it lets iteration 1 repeat iteration 0 and copy its swaps into
// iterations 2-4), and the eager cases need the dispatch clock.
func TestRunSkipMatchesTraced(t *testing.T) {
	for _, c := range skipCases() {
		t.Run(c.name, func(t *testing.T) {
			skipping, traced := newSkipSession(t, c, nil), newSkipSession(t, c, nopTracer{})
			before := IterationsSimulated()
			got, gotErr := skipping.Run(5)
			if n := IterationsSimulated() - before; n != c.simulated {
				t.Errorf("skipping run simulated %d iterations, want %d", n, c.simulated)
			}
			want, wantErr := traced.Run(5)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("error %v, traced run's %v", gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("stats differ from the traced run:\n got %v\nwant %v", got, want)
			}
			if gs, ws := stateOf(skipping), stateOf(traced); !reflect.DeepEqual(gs, ws) {
				t.Fatalf("session after Run differs from the traced run's:\n got %+v\nwant %+v", gs, ws)
			}
			if wantErr != nil {
				return
			}
			g, gerr := skipping.RunIteration()
			w, werr := traced.RunIteration()
			if g != w || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("next iteration after Run differs:\n got %v (%v)\nwant %v (%v)", g, gerr, w, werr)
			}
		})
	}
}

// TestRunSkipGate checks the gate's other side: a TF-ori session that a
// tracer, a metrics registry, span recording or a fault plan observes
// simulates every iteration.
func TestRunSkipGate(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(*Config)
		want int64
	}{
		{"unobserved", func(*Config) {}, 1},
		{"tracer", func(c *Config) { c.Tracer = nopTracer{} }, 4},
		{"metrics", func(c *Config) { c.Metrics = obs.NewMetrics() }, 4},
		{"spans", func(c *Config) { c.RecordSpans = true }, 4},
		{"faults", func(c *Config) { c.Faults = fault.Plan{Seed: 1, KernelSpikeRate: 1e-9} }, 4},
		// Embedding NullPolicy for its defaults does not opt in: the
		// embedder may have state of its own.
		{"embeds-null", func(c *Config) { c.Policy = struct{ NullPolicy }{} }, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Device: device(4 * hw.GiB)}
			c.cfg(&cfg)
			s, err := NewSession(testCNN(t, graph.GraphModeOptions()), cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := IterationsSimulated()
			if _, err := s.Run(4); err != nil {
				t.Fatal(err)
			}
			if n := IterationsSimulated() - before; n != c.want {
				t.Errorf("simulated %d of 4 iterations, want %d", n, c.want)
			}
		})
	}
}

// TestRepeatFingerprints checks the content rule against real
// iterations, TF-ori on an uncapped device, for every zoo model in graph
// and eager mode: Reference's n iterations, and a run that repeats n-1
// after one real iteration, give the fingerprints of n real iterations.
// The real run is on the graph Reference walked, and its stats must
// equal a run's on a fresh graph.
func TestRepeatFingerprints(t *testing.T) {
	const n = 4
	for _, name := range models.Names() {
		spec, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{GraphMode, EagerMode} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				opt := graph.GraphModeOptions()
				if mode == EagerMode {
					opt = graph.EagerModeOptions()
				}
				cfg := Config{Device: device(hw.MaxMemory), Mode: mode}
				var ref []Fingerprints
				run := func(walk bool) ([]IterStats, *Session) {
					g, err := spec.BuildShaped(2, 0, opt)
					if err != nil {
						t.Fatal(err)
					}
					if walk {
						ref = Reference(g, n)
					}
					s, err := NewSession(g, cfg)
					if err != nil {
						t.Fatal(err)
					}
					sts := make([]IterStats, n)
					for i := range sts {
						if sts[i], err = s.RunIteration(); err != nil {
							t.Fatal(err)
						}
					}
					return sts, s
				}
				real, _ := run(true)
				fresh, s := run(false)
				if !reflect.DeepEqual(real, fresh) {
					t.Fatalf("stats on the graph Reference walked differ from a fresh graph's:\n%+v\n%+v", real, fresh)
				}
				// A new session on the same graph reseeds the parameters.
				s, err := NewSession(s.g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				st, err := s.RunIteration()
				if err != nil {
					t.Fatal(err)
				}
				replayed := s.repeat([]IterStats{st}, n)
				for i, st := range real {
					if st.Fingerprints() != ref[i] || replayed[i].Fingerprints() != ref[i] {
						t.Fatalf("iter %d: {loss, param} fingerprints real %x, Reference %x, repeated %x",
							i, st.Fingerprints(), ref[i], replayed[i].Fingerprints())
					}
				}
				for _, tt := range s.tlist {
					if !tt.Persistent && tt.Fingerprint != 0 {
						t.Fatalf("replay left activation %s with fingerprint %x", tt.ID, tt.Fingerprint)
					}
				}
			})
		}
	}
}

// TestReferenceNeedsNoDevice: resnet50 at batch 4096 runs out of memory
// in its first iteration on a 256 GiB device, and Reference still gives
// its fingerprints.
func TestReferenceNeedsNoDevice(t *testing.T) {
	spec, err := models.Get("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.BuildShaped(4096, 0, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ref := Reference(g, 2); len(ref) != 2 || ref[0] == ref[1] || ref[1].Loss == 0 {
		t.Fatalf("Reference = %x, want two distinct iterations", ref)
	}
	s, err := NewSession(g, Config{Device: device(256 * hw.GiB)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunIteration(); !errors.Is(err, ErrIterationOOM) {
		t.Fatalf("a 256 GiB session: %v, want ErrIterationOOM", err)
	}
}

// TestBoundaryAssertsEmptyState checks that a boundary holding state the
// barrier should have emptied fails the run with an invariant error
// instead of being digested, and that the run's last entry is then the
// iteration that could not start, not the completed one before it.
func TestBoundaryAssertsEmptyState(t *testing.T) {
	s, err := NewSession(testCNN(t, graph.GraphModeOptions()), Config{Device: device(4 * hw.GiB)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1); err != nil {
		t.Fatal(err)
	}
	leak, err := s.pool.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.Run(2)
	if !isInvariant(err) {
		t.Fatalf("Run with memory held beyond the parameters: err %v, want an invariant violation", err)
	}
	if want := []IterStats{{Iter: 1}}; !reflect.DeepEqual(stats, want) {
		t.Fatalf("stats of a run failing at its first boundary: %v, want %v", stats, want)
	}
	if err := s.pool.Free(leak); err != nil {
		t.Fatal(err)
	}
	if err := s.host.ReserveIdx(0, "leak", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(2); !isInvariant(err) {
		t.Fatalf("Run with a host reservation: err %v, want an invariant violation", err)
	}
}

func isInvariant(err error) bool { return errors.Is(err, ErrInvariant) }
