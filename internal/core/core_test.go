package core

import (
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/ops"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
	"capuchin/internal/testutil"
)

// testCNN builds a constant-width conv net: the per-op working set stays
// near 3 activations (24 MB) while the total footprint of backward-needed
// feature maps is far larger, leaving Capuchin real room to plan.
func testCNN(t testing.TB) *graph.Graph { return testCNNBatch(t, 8) }

// testCNNBatch is testCNN at any batch size, the shape axis dynamic runs
// drift along.
func testCNNBatch(t testing.TB, batch int64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder("testcnn")
	x := b.Input("data", tensor.Shape{batch, 3, 64, 64}, tensor.Float32)
	labels := b.Input("labels", tensor.Shape{batch, 10}, tensor.Float32)
	h := x
	for i := 0; i < 6; i++ {
		w := b.Variable(name2("conv", i)+"_w", tensor.Shape{64, h.Shape[1], 3, 3})
		h = b.Apply1(name2("conv", i), ops.Conv2D{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, h, w)
		h = b.Apply1(name2("relu", i), ops.ReLU, h)
	}
	h = b.Apply1("gap", ops.Pool{Kind: ops.AvgPoolKind}, h)
	flat := b.Apply1("flatten", ops.Reshape{To: tensor.Shape{batch, h.Shape.Elems() / batch}}, h)
	w := b.Variable("fc_w", tensor.Shape{flat.Shape[1], 10})
	logits := b.Apply1("fc", ops.MatMul{}, flat, w)
	loss := b.Apply1("loss", ops.SoftmaxCrossEntropy{}, logits, labels)
	g, err := b.Build(loss, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func name2(base string, i int) string {
	return base + string(rune('0'+i))
}

func device(mem int64) hw.DeviceSpec {
	d := hw.P100()
	d.MemoryBytes = mem
	return d
}

func TestCapuchinGuidedMatchesOracle(t *testing.T) {
	const iters = 4
	cap := New(Options{})
	s, err := exec.NewSession(testCNN(t), exec.Config{
		Device:              device(48 * hw.MiB),
		Policy:              cap,
		CollectiveRecompute: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sts, err := s.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	testutil.MatchesReference(t, "capuchin", testCNN(t), sts)
	sum := cap.Summary()
	if !sum.Planned {
		t.Fatal("no plan was made despite memory pressure")
	}
	if sum.RequiredBytes <= 0 {
		t.Errorf("required bytes = %d, want positive at 48 MiB", sum.RequiredBytes)
	}
	if sum.SwapTensors+sum.RecomputeCount == 0 {
		t.Error("plan selected no tensors")
	}
	if sum.String() == "" {
		t.Error("empty summary string")
	}
	// Guided iterations must not exceed the device capacity.
	if s.Pool().Peak() > 48*hw.MiB {
		t.Errorf("peak %d exceeds capacity", s.Pool().Peak())
	}
}

func TestCapuchinGuidedBeatsPassive(t *testing.T) {
	// Passive-only: LRU eviction on demand every iteration.
	passive := New(Options{})
	passive.measureLeft = 1 << 30 // never plans
	sp, err := exec.NewSession(testCNN(t), exec.Config{Device: device(48 * hw.MiB), Policy: passive})
	if err != nil {
		t.Fatal(err)
	}
	pStats, err := sp.Run(3)
	if err != nil {
		t.Fatal(err)
	}

	guided := New(Options{})
	sg, err := exec.NewSession(testCNN(t), exec.Config{Device: device(48 * hw.MiB), Policy: guided, CollectiveRecompute: true})
	if err != nil {
		t.Fatal(err)
	}
	gStats, err := sg.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	// Iteration 0 is measured (passive) in both; compare steady state.
	if gStats[2].Duration >= pStats[2].Duration {
		t.Errorf("guided iteration (%v) not faster than passive (%v)",
			gStats[2].Duration, pStats[2].Duration)
	}
	// Guided execution should avoid most on-demand stalls via proactive
	// eviction and prefetch.
	if gStats[2].PassiveEvicts >= pStats[2].PassiveEvicts && pStats[2].PassiveEvicts > 0 {
		t.Errorf("guided passive evicts (%d) not below pure passive (%d)",
			gStats[2].PassiveEvicts, pStats[2].PassiveEvicts)
	}
}

func TestCapuchinModes(t *testing.T) {
	run := func(o Options) (exec.IterStats, PlanSummary) {
		c := New(o)
		s, err := exec.NewSession(testCNN(t), exec.Config{
			Device:              device(48 * hw.MiB),
			Policy:              c,
			CollectiveRecompute: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		sts, err := s.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		return sts[2], c.Summary()
	}
	_, swapSum := run(Options{SwapOnly: true})
	if swapSum.RecomputeCount != 0 {
		t.Errorf("swap-only plan recomputes %d tensors", swapSum.RecomputeCount)
	}
	if swapSum.SwapTensors == 0 {
		t.Error("swap-only plan swapped nothing")
	}
	recSt, recSum := run(Options{RecomputeOnly: true})
	if recSum.SwapTensors != 0 {
		t.Errorf("recompute-only plan swaps %d tensors", recSum.SwapTensors)
	}
	if recSum.RecomputeCount == 0 {
		t.Error("recompute-only plan recomputed nothing")
	}
	if recSt.RecomputeCount == 0 {
		t.Error("recompute-only guided iteration performed no replays")
	}
}

func TestCapuchinModesMatchOracle(t *testing.T) {
	for _, o := range []Options{{SwapOnly: true}, {RecomputeOnly: true}, {DisableFeedback: true}} {
		c := New(o)
		s, err := exec.NewSession(testCNN(t), exec.Config{
			Device:              device(48 * hw.MiB),
			Policy:              c,
			CollectiveRecompute: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		sts, err := s.Run(3)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		testutil.MatchesReference(t, c.Name(), testCNN(t), sts)
	}
}

func TestCapuchinNoPressureNoPlanActions(t *testing.T) {
	c := New(Options{})
	s, err := exec.NewSession(testCNN(t), exec.Config{Device: device(2 * hw.GiB), Policy: c})
	if err != nil {
		t.Fatal(err)
	}
	sts, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	sum := c.Summary()
	if !sum.Planned {
		t.Fatal("planner did not run")
	}
	if sum.RequiredBytes > 0 {
		t.Errorf("required %d bytes at 2 GiB; expected fit", sum.RequiredBytes)
	}
	if sts[1].SwapOutCount != 0 || sts[1].RecomputeCount != 0 {
		t.Error("plan acted despite no memory pressure")
	}
}

func TestCapuchinNames(t *testing.T) {
	if New(Options{}).Name() != "capuchin" {
		t.Error("default name")
	}
	if New(Options{SwapOnly: true}).Name() != "capuchin-swap" {
		t.Error("swap-only name")
	}
	if New(Options{RecomputeOnly: true}).Name() != "capuchin-recompute" {
		t.Error("recompute-only name")
	}
	if !New(Options{}).TracksAccesses() {
		t.Error("capuchin must track accesses")
	}
	defer func() {
		if recover() == nil {
			t.Error("SwapOnly+RecomputeOnly accepted")
		}
	}()
	New(Options{SwapOnly: true, RecomputeOnly: true})
}

// --- planner unit tests on synthetic traces ---

// syntheticTensor creates a bare tensor for tracker tests. It has no
// graph, so intern assigns its Idx when it is first observed.
func syntheticTensor(id string, bytes int64, inputs ...*tensor.Tensor) *tensor.Tensor {
	tt := new(tensor.Arena).New(id, tensor.Shape{bytes / 4}, tensor.Float32)
	tt.OpName = "op_" + id
	tt.Inputs = inputs
	return tt
}

// intern gives a synthetic tensor the next free Idx of the tracker, as a
// graph reindex would have.
func intern(tk *tracker, t *tensor.Tensor) {
	if t.Idx < 0 {
		t.Idx = int32(len(tk.records))
		tk.records = append(tk.records, record{})
	}
}

// synthNodes holds the nodes of synthetic traces by ID. Pos numbers them
// densely, as a graph reindex would.
var synthNodes = map[string]*graph.Node{}

// synthNode returns the synthetic node called id and sizes the tracker's
// per-node table to cover it.
func synthNode(tk *tracker, id string) *graph.Node {
	n := synthNodes[id]
	if n == nil {
		n = &graph.Node{ID: id, Pos: len(synthNodes)}
		synthNodes[id] = n
	}
	for len(tk.nodeStart) <= n.Pos {
		tk.nodeStart = append(tk.nodeStart, noStart)
	}
	return n
}

// observeChain records a produce at prodAt and reads at the given times.
func observeChain(tk *tracker, t *tensor.Tensor, nodeID string, prodAt sim.Time, reads ...sim.Time) {
	intern(tk, t)
	count := t.AccessCount
	count++
	tk.observe(exec.Access{Tensor: t, Kind: exec.Produce, Count: count, At: prodAt, Node: synthNode(tk, nodeID)})
	t.AccessCount = count
	for i, at := range reads {
		tk.observe(exec.Access{Tensor: t, Kind: exec.Read, Count: count + 1 + i, At: at, Node: synthNode(tk, "consumer")})
		t.AccessCount++
	}
}

func TestUsageCurveAndPeakWindow(t *testing.T) {
	tk := newTracker(0, 0)
	a := syntheticTensor("a", 100)
	b := syntheticTensor("b", 200)
	observeChain(tk, a, "na", 10, 50)
	tk.observe(exec.Access{Tensor: a, Kind: exec.Dealloc, Count: 2, At: 60})
	observeChain(tk, b, "nb", 20, 80)
	tk.observe(exec.Access{Tensor: b, Kind: exec.Dealloc, Count: 2, At: 90})
	tk.finish()
	curve, peak := tk.usageCurve()
	if peak != 300 {
		t.Errorf("peak = %d, want 300", peak)
	}
	// Usage: 100 at t=10, 300 at t=20, 200 at t=60, 0 at t=90.
	from, to, ok := peakWindow(curve, 250)
	if !ok || from != 20 || to != 60 {
		t.Errorf("window = [%d,%d] ok=%v, want [20,60]", from, to, ok)
	}
	if _, _, ok := peakWindow(curve, 1000); ok {
		t.Error("window found above peak")
	}
}

func TestFreeTimeSelection(t *testing.T) {
	// Two tensors, same size; T1 has a much larger reuse gap, so its FT
	// is larger and it must rank first (the Fig. 3 argument).
	tk := newTracker(0, 0)
	t1 := syntheticTensor("t1", 1<<20)
	t2 := syntheticTensor("t2", 1<<20)
	observeChain(tk, t1, "n1", 0, 10*sim.Millisecond, 500*sim.Millisecond)
	observeChain(tk, t2, "n2", 0, 10*sim.Millisecond, 20*sim.Millisecond)
	tk.finish()
	pl := &planner{
		tk:       tk,
		capacity: 1, // irrelevant here
		swapOut:  func(b int64) sim.Time { return sim.Millisecond },
		swapIn:   func(b int64) sim.Time { return sim.Millisecond },
	}
	cands := pl.identifyCandidates(0, 600*sim.Millisecond)
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2", len(cands))
	}
	byID := map[string]*cand{cands[0].id(): cands[0], cands[1].id(): cands[1]}
	c1, c2 := byID["t1"], byID["t2"]
	// T1's best pair is the 490ms gap: FT = 490ms - 2ms.
	if c1.ft != 488*sim.Millisecond {
		t.Errorf("t1 FT = %v, want 488ms", c1.ft)
	}
	if c1.evictCount != 2 || c1.backCount != 3 {
		t.Errorf("t1 pair = (%d,%d), want (2,3)", c1.evictCount, c1.backCount)
	}
	// T2's best gap is 10ms (produce->first read): FT = 8ms.
	if c2.ft != 8*sim.Millisecond {
		t.Errorf("t2 FT = %v, want 8ms", c2.ft)
	}
}

// TestAlgorithm2PaperExample reproduces §4.5's T1->T2->T3->T4 walkthrough:
// candidates {T1,T2,T4}; choosing T2 first forces T4's recomputation to
// start from T1 and penalizes repeated sources.
func TestAlgorithm2PaperExample(t *testing.T) {
	tk := newTracker(0, 0)
	t1 := syntheticTensor("t1", 1<<20)
	t2 := syntheticTensor("t2", 1<<20, t1)
	t3 := syntheticTensor("t3", 1<<20, t2)
	t4 := syntheticTensor("t4", 1<<20, t3)

	// Forward: t1..t4 produced in sequence, each read by its successor;
	// all re-read in backward (times 100..103).
	observeChain(tk, t1, "n1", 0)
	tk.observe(exec.Access{Tensor: t1, Kind: exec.Read, Count: 2, At: 1, Node: synthNode(tk, "n2")})
	t1.AccessCount = 2
	observeChain(tk, t2, "n2", 2)
	tk.observe(exec.Access{Tensor: t2, Kind: exec.Read, Count: 2, At: 3, Node: synthNode(tk, "n3")})
	t2.AccessCount = 2
	observeChain(tk, t3, "n3", 4)
	tk.observe(exec.Access{Tensor: t3, Kind: exec.Read, Count: 2, At: 5, Node: synthNode(tk, "n4")})
	t3.AccessCount = 2
	// t3 dies right after its forward read: it cannot serve as a source.
	tk.observe(exec.Access{Tensor: t3, Kind: exec.Dealloc, Count: 2, At: 6})
	observeChain(tk, t4, "n4", 6)
	// Backward accesses.
	tk.observe(exec.Access{Tensor: t4, Kind: exec.Read, Count: 2, At: 100, Node: synthNode(tk, "g4")})
	t4.AccessCount = 2
	tk.observe(exec.Access{Tensor: t2, Kind: exec.Read, Count: 3, At: 102, Node: synthNode(tk, "g2")})
	tk.observe(exec.Access{Tensor: t1, Kind: exec.Read, Count: 3, At: 103, Node: synthNode(tk, "g1")})
	tk.finish()
	// Synthetic producer durations (the real tracker derives these from
	// input-read/produce time differences).
	tk.records[t1.Idx].producerDur = 5
	tk.records[t2.Idx].producerDur = 6
	tk.records[t3.Idx].producerDur = 7
	tk.records[t4.Idx].producerDur = 8

	pl := &planner{
		tk:      tk,
		swapOut: func(b int64) sim.Time { return sim.Millisecond },
		swapIn:  func(b int64) sim.Time { return sim.Millisecond },
	}
	cands := pl.identifyCandidates(0, 200)
	var c1, c2, c4 *cand
	for _, c := range cands {
		switch c.id() {
		case "t1":
			c1 = c
		case "t2":
			c2 = c
		case "t4":
			c4 = c
		}
	}
	if c1 == nil || c2 == nil || c4 == nil {
		t.Fatalf("candidates missing: %v %v %v", c1, c2, c4)
	}
	cands = []*cand{c1, c2, c4}
	pl.initRecompute(cands)

	// Initially T4 recomputes from T3's producer: T3 is dead at T4's
	// back-access, so T4's sources are {t2} (a candidate, assumed
	// resident) and its replay covers n4 and n3.
	if !hasSrc(c4.srcs, t2.Idx) {
		t.Errorf("t4 sources = %v, want to include t2", c4.srcs)
	}
	if hasSrc(c4.srcs, t3.Idx) {
		t.Error("dead t3 treated as a source")
	}
	rp0 := c4.rpTime

	// Select T2 for recomputation: T4's source moves to T2's sources
	// (t1) and its replay time grows by T2's.
	p := newPlan(make([]string, len(tk.records)), tk.seq)
	pl.rankCandidates(cands)
	pl.selectRecompute(p, cands, 1)
	if hasSrc(c4.srcs, t2.Idx) {
		t.Error("t4 still sources from chosen t2")
	}
	if !hasSrc(c4.srcs, t1.Idx) {
		t.Errorf("t4 sources = %v, want t1 after t2 chosen", c4.srcs)
	}
	if c4.rpTime <= rp0 {
		t.Errorf("t4 replay time did not grow: %v <= %v", c4.rpTime, rp0)
	}
	// T1 is in T2's sources: choosing T2 penalizes T1 with ext time.
	if c1.extTime == 0 {
		t.Error("t1 ext time not applied after t2 selection")
	}
}

func TestChooseInTriggerAvoidsSelfAndEarly(t *testing.T) {
	tk := newTracker(0, 0)
	a := syntheticTensor("a", 1<<20)
	b := syntheticTensor("b", 1<<20)
	observeChain(tk, a, "na", 0, 10)
	observeChain(tk, b, "nb", 5, 400, 900)
	// b's back access at 900; a is read again at 850 (trigger host).
	tk.observe(exec.Access{Tensor: a, Kind: exec.Read, Count: 3, At: 850, Node: synthNode(tk, "nc")})
	tk.finish()
	p := newPlan(make([]string, len(tk.records)), tk.seq)
	pl := &planner{
		tk:      tk,
		swapOut: func(b int64) sim.Time { return 10 },
		swapIn:  func(b int64) sim.Time { return 30 },
	}
	sp := &swapPlan{idx: b.Idx, evictCount: 2, backCount: 3, evictAt: 400, backAt: 900, swapInDur: 30}
	idx := pl.chooseInTrigger(p, sp, sp.backAt-sp.swapInDur)
	if idx < 0 {
		t.Fatal("no trigger chosen")
	}
	e := tk.seq[idx]
	// Ideal start 870; the latest access at or before 870 that is not b
	// itself and after the eviction is a's read at 850.
	if e.idx != a.Idx || e.at != 850 {
		t.Errorf("trigger = tensor %d@%d, want a@850", e.idx, e.at)
	}
}

func TestFeedbackAdjustsTrigger(t *testing.T) {
	// A slow H2D link makes every prefetch late; feedback must move
	// triggers earlier over iterations and reduce stall.
	dev := device(48 * hw.MiB)
	dev.H2D.BytesPerSec /= 4
	run := func(disable bool) ([]exec.IterStats, *Capuchin) {
		c := New(Options{SwapOnly: true, DisableFeedback: disable})
		s, err := exec.NewSession(testCNN(t), exec.Config{Device: dev, Policy: c})
		if err != nil {
			t.Fatal(err)
		}
		sts, err := s.Run(6)
		if err != nil {
			t.Fatal(err)
		}
		return sts, c
	}
	withFA, cFA := run(false)
	withoutFA, _ := run(true)
	if cFA.Summary().Adjustments == 0 {
		t.Fatal("no feedback adjustments despite slow link")
	}
	// Steady-state iteration with feedback should be at least as fast.
	last := len(withFA) - 1
	if withFA[last].Duration > withoutFA[last].Duration {
		t.Errorf("feedback made things worse: %v > %v",
			withFA[last].Duration, withoutFA[last].Duration)
	}
}
