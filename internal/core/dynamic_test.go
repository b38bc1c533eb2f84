package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/testutil"
)

// phases is a ShapeSchedule stepping through fixed batch phases.
type phases []int64

func (p phases) At(iter int) (int64, int64) {
	idx := iter / 3
	if idx >= len(p) {
		idx = len(p) - 1
	}
	return p[idx], 0
}

// TestCapuchinDynamicSignatures drives the real policy through the
// dynamic engine across a b8 -> b6 -> b8 signature walk: the new
// signature re-measures and re-plans, the revisit reuses its cached
// plan, and the decision audit records each transition.
func TestCapuchinDynamicSignatures(t *testing.T) {
	col := obs.NewCollector()
	cap := New(Options{})
	d, err := exec.NewDynamicSession(exec.DynamicConfig{
		Base: exec.Config{
			Device:              device(48 * hw.MiB),
			Policy:              cap,
			CollectiveRecompute: true,
			Tracer:              col,
		},
		Build: func(batch, seq int64) (*graph.Graph, error) {
			return testCNNBatch(t, batch), nil
		},
		Schedule: phases{8, 6, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := d.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	// The b6 measured pass reuses the tracker of b8's, but the access
	// sequence b8's plan took from it is the plan's own: the cached plan
	// must come back unchanged.
	b8Plan := cap.plan
	b8Seq := slices.Clone(b8Plan.seq)
	rest, err := d.Run(6)
	stats = append(stats, rest...)
	if err != nil {
		t.Fatal(err)
	}
	if cap.plan != b8Plan || !slices.Equal(b8Plan.seq, b8Seq) {
		t.Error("the b8 revisit's plan is not the cached plan as it was built")
	}

	sum := cap.Summary()
	if sum.PlanBuilds != 2 {
		t.Errorf("plan builds = %d, want 2 (one per signature)", sum.PlanBuilds)
	}
	if sum.CacheHits != 1 {
		t.Errorf("plan cache hits = %d, want 1 (the b8 revisit)", sum.CacheHits)
	}
	if sum.Signatures != 2 {
		t.Errorf("cached signatures = %d, want 2", sum.Signatures)
	}
	if sum.Invalidations != 0 {
		t.Errorf("invalidations = %d, want 0 in a fault-free steady run", sum.Invalidations)
	}
	ds := d.Stats()
	if ds.Replans != 1 {
		t.Errorf("replans = %d, want 1 (the b6 measured pass)", ds.Replans)
	}
	if ds.PlanCacheHits != 1 || ds.Switches != 2 {
		t.Errorf("engine hits/switches = %d/%d, want 1/2", ds.PlanCacheHits, ds.Switches)
	}

	// The audit log shows the whole story: measure on the unseen
	// signature, re-plan when its pass completes, cache hit on revisit.
	actions := map[string]int{}
	for _, dec := range col.Decisions() {
		actions[dec.Action]++
	}
	for _, want := range []string{"plan-measure", "re-plan", "plan-cache-hit", "shape-switch"} {
		if actions[want] == 0 {
			t.Errorf("no %q decision in audit log (have %v)", want, actions)
		}
	}

	// The b8 revisit (iterations 6..8) runs guided from the cached plan:
	// no measured pass means its bucket reports zero measured iterations
	// beyond the initial one.
	var b8 exec.BucketStats
	for _, bk := range d.Buckets() {
		if bk.Sig == "b8" {
			b8 = bk
		}
	}
	if b8.Iterations != 6 {
		t.Fatalf("b8 bucket iterations = %d, want 6", b8.Iterations)
	}
	if b8.Measured != 1 {
		t.Errorf("b8 measured iterations = %d, want 1 (revisit reused the cached plan)", b8.Measured)
	}

	// Correctness oracle: the dynamic b8 iterations compute what
	// exec.Reference gives for the b8 graph.
	walk := phases{8, 6, 8}
	var got []exec.IterStats
	for _, st := range stats {
		if b, _ := walk.At(st.Iter); b == 8 {
			got = append(got, st)
		}
	}
	testutil.MatchesReference(t, "b8", testCNNBatch(t, 8), got)
}

// normalizedExport decodes a plan export and canonicalizes the two
// run-position artifacts so plans measured at different points of the
// same training run compare structurally: timestamps rebase to the
// trace origin, and per-tensor access counts rebase to 1 (persistent
// weights never reset their counters, so a later measured pass sees the
// same accesses at higher counts).
func normalizedExport(t *testing.T, c *Capuchin) planDTO {
	t.Helper()
	var buf bytes.Buffer
	if err := c.ExportPlan(&buf); err != nil {
		t.Fatal(err)
	}
	var dto planDTO
	if err := json.Unmarshal(buf.Bytes(), &dto); err != nil {
		t.Fatal(err)
	}
	if len(dto.Seq) == 0 {
		return dto
	}
	origin := dto.Seq[0].AtNS
	minCount := map[string]int{}
	for _, e := range dto.Seq {
		if m, ok := minCount[e.ID]; !ok || e.Count < m {
			minCount[e.ID] = e.Count
		}
	}
	shift := func(id string, count int) int { return count - minCount[id] + 1 }
	for i := range dto.Seq {
		dto.Seq[i].AtNS -= origin
		dto.Seq[i].Count = shift(dto.Seq[i].ID, dto.Seq[i].Count)
	}
	for i := range dto.Evict {
		dto.Evict[i].Count = shift(dto.Evict[i].ID, dto.Evict[i].Count)
	}
	for i := range dto.Swaps {
		dto.Swaps[i].EvictAtNS -= origin
		dto.Swaps[i].BackAtNS -= origin
		dto.Swaps[i].EvictCount = shift(dto.Swaps[i].ID, dto.Swaps[i].EvictCount)
		dto.Swaps[i].BackCount = shift(dto.Swaps[i].ID, dto.Swaps[i].BackCount)
	}
	dto.Window[0] -= origin
	dto.Window[1] -= origin
	return dto
}

// TestCapuchinInvalidateRebuild pins the system-level cache property:
// invalidating mid-run and re-measuring the identical workload rebuilds
// a structurally identical plan, and the policy walks through the
// expected states (guided -> measured -> guided).
func TestCapuchinInvalidateRebuild(t *testing.T) {
	cap := New(Options{})
	s, err := exec.NewSession(testCNNBatch(t, 8), exec.Config{
		Device:              device(48 * hw.MiB),
		Policy:              cap,
		CollectiveRecompute: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	if !cap.Planned() {
		t.Fatal("no plan after the measured iteration")
	}
	first := normalizedExport(t, cap)

	cap.InvalidatePlan("test-driven invalidation", nil)
	if cap.Planned() {
		t.Fatal("plan survived invalidation")
	}
	// Idempotent while unplanned.
	cap.InvalidatePlan("again", nil)

	// The next iteration re-measures passively; the one after runs
	// guided off the rebuilt plan.
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	if !cap.Planned() {
		t.Fatal("no plan after the re-measurement pass")
	}
	rebuilt := normalizedExport(t, cap)
	if !reflect.DeepEqual(first, rebuilt) {
		t.Errorf("rebuilt plan differs from the original:\n first  %+v\n rebuilt %+v", first, rebuilt)
	}
	sum := cap.Summary()
	if sum.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", sum.Invalidations)
	}
	if sum.PlanBuilds != 2 {
		t.Errorf("plan builds = %d, want 2", sum.PlanBuilds)
	}
}

// TestBeginSignatureFirstCallSilent pins the differential-test
// precondition: naming the initial signature neither audits nor
// disturbs policy state, including a LoadPlan-ed plan.
func TestBeginSignatureFirstCallSilent(t *testing.T) {
	cap := New(Options{})
	s, err := exec.NewSession(testCNNBatch(t, 8), exec.Config{
		Device:              device(48 * hw.MiB),
		Policy:              cap,
		CollectiveRecompute: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cap.ExportPlan(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPlan(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.BeginSignature("b8", nil) {
		t.Fatal("first BeginSignature dropped the loaded plan")
	}
	if !loaded.Planned() {
		t.Fatal("loaded plan lost")
	}
	// Repeat call with the same signature is a no-op.
	if !loaded.BeginSignature("b8", nil) {
		t.Fatal("repeat BeginSignature with same signature reported no plan")
	}
	if sum := loaded.Summary(); sum.CacheHits != 0 || sum.Invalidations != 0 {
		t.Errorf("first-signature bookkeeping audited state: %+v", sum)
	}
	// A genuinely new signature schedules a measured pass even for a
	// loaded policy.
	if loaded.BeginSignature("b6", nil) {
		t.Fatal("unseen signature claimed a plan")
	}
	if loaded.Planned() {
		t.Fatal("plan survived signature change")
	}
	// And the original signature's plan returns from the cache.
	if !loaded.BeginSignature("b8", nil) {
		t.Fatal("cached plan for b8 not restored")
	}
	if sum := loaded.Summary(); sum.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", sum.CacheHits)
	}
}

// TestPlanCacheAcrossRebuiltGraphs walks the signatures A→B→C→D→E→A
// (b8 → b7 → b6 → b5 → b4 → b8). The engine keeps four live sessions,
// so visiting four other signatures evicts A's session and the return
// to A builds its graph again: a plan-cache hit on a graph the plan was
// not built on. The cached plan
// is keyed by Tensor.Idx; a rebuilt graph of the same signature keeps
// every Idx, so the plan binds as it is and must drive the same
// evictions and prefetches as on the first visit, with fingerprints
// that match an uncapped static run.
func TestPlanCacheAcrossRebuiltGraphs(t *testing.T) {
	col := obs.NewCollector()
	cap := New(Options{})
	var graphs []*graph.Graph
	d, err := exec.NewDynamicSession(exec.DynamicConfig{
		Base: exec.Config{
			Device:              device(48 * hw.MiB),
			Policy:              cap,
			CollectiveRecompute: true,
			Tracer:              col,
		},
		Build: func(batch, seq int64) (*graph.Graph, error) {
			g := testCNNBatch(t, batch)
			graphs = append(graphs, g)
			return g, nil
		},
		Schedule: phases{8, 7, 6, 5, 4, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A's first visit (a measured iteration, then guided ones), B to E,
	// and the return to A, three iterations each.
	const last = 5
	var visits [last + 1][]exec.IterStats
	var planA *plan
	var namesA []string
	for i := range visits {
		if visits[i], err = d.Run(3); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			planA = cap.plan
			if planA == nil || planA.numSwap+planA.numRecompute == 0 {
				t.Fatal("signature A made no plan under pressure")
			}
			namesA = slices.Clone(planA.names)
		}
	}

	if len(graphs) != last+1 || graphs[last] == graphs[0] {
		t.Fatalf("built %d graphs; the return to A must build a fresh one", len(graphs))
	}
	if sum := cap.Summary(); sum.PlanBuilds != last || sum.CacheHits != 1 {
		t.Fatalf("plan builds/cache hits = %d/%d, want %d/1", sum.PlanBuilds, sum.CacheHits, last)
	}
	if cap.plan != planA || !slices.Equal(cap.plan.names, namesA) {
		t.Fatal("the return to A did not reuse A's plan as built")
	}

	// What each visit's iterations did to the tensors the plan evicts,
	// in order: evictions, prefetches and on-demand swap-ins. A fresh
	// session numbers its iterations from 0, so the shape-switch
	// decisions split the log into visits.
	var moves [last + 1]map[int][]string
	visit := 0
	for _, dec := range col.Decisions() {
		switch dec.Action {
		case "shape-switch":
			visit++
		case "swap-out", "release-recompute", "fallback-recompute", "prefetch", "ondemand-swapin":
			if moves[visit] == nil {
				moves[visit] = map[int][]string{}
			}
			moves[visit][dec.Iter] = append(moves[visit][dec.Iter], dec.Action+" "+dec.Tensor)
		}
	}
	// A's first guided iteration came after its measured one; the
	// return to A is guided from its first iteration.
	first, revisit := moves[0][1], moves[last][0]
	if !slices.Contains(first, "swap-out data:0") {
		t.Fatalf("A's first guided iteration did not run its plan: %v", first)
	}
	if !slices.Equal(first, revisit) {
		t.Errorf("the cached plan acted differently on the rebuilt graph:\n first visit %v\n revisit     %v", first, revisit)
	}

	for _, v := range []int{0, last} {
		testutil.MatchesReference(t, fmt.Sprintf("visit %d", v), testCNNBatch(t, 8), visits[v])
	}
}
