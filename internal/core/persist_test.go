package core

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/models"
)

func TestPlanExportImportRoundTrip(t *testing.T) {
	// Measure + plan on one session.
	c1 := New(Options{})
	s1, err := exec.NewSession(testCNN(t), exec.Config{
		Device:              device(48 * hw.MiB),
		Policy:              c1,
		CollectiveRecompute: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s1.Run(3)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := c1.ExportPlan(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"version"`) {
		t.Error("export missing version field")
	}

	// Load the plan into a fresh policy on a fresh session: guided from
	// iteration 0, no measured pass, same fingerprints.
	c2, err := LoadPlan(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := exec.NewSession(testCNN(t), exec.Config{
		Device:              device(48 * hw.MiB),
		Policy:              c2,
		CollectiveRecompute: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].ParamFingerprint != want[i].ParamFingerprint {
			t.Errorf("iter %d: fingerprint diverged under imported plan", i)
		}
	}
	// Iteration 0 under the imported plan is already guided: proactive
	// actions fire immediately and it matches the donor's steady state,
	// not its slow measured iteration.
	if got[0].SwapOutCount == 0 && got[0].RecomputeCount == 0 {
		t.Error("imported plan took no proactive actions in iteration 0")
	}
	if got[0].Duration >= want[0].Duration {
		t.Errorf("guided-from-start iteration (%v) not faster than the donor's measured iteration (%v)",
			got[0].Duration, want[0].Duration)
	}
	// Summaries agree on the decision counts.
	a, b := c1.Summary(), c2.Summary()
	if a.SwapTensors != b.SwapTensors || a.RecomputeCount != b.RecomputeCount {
		t.Errorf("summaries differ: %+v vs %+v", a, b)
	}
	// DescribePlan works without tracker records.
	if len(c2.DescribePlan()) != len(c1.DescribePlan()) {
		t.Error("imported plan describes differently")
	}
}

func TestExportBeforePlanFails(t *testing.T) {
	c := New(Options{})
	if err := c.ExportPlan(&bytes.Buffer{}); err == nil {
		t.Error("export succeeded with no plan")
	}
}

func TestLoadPlanErrors(t *testing.T) {
	if _, err := LoadPlan(strings.NewReader("not json"), Options{}); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadPlan(strings.NewReader(`{"version": 99}`), Options{}); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := LoadPlan(strings.NewReader(
		`{"version":1,"evictions":[{"id":"x","count":1,"action":"teleport"}]}`), Options{}); err == nil {
		t.Error("unknown action accepted")
	}
	if _, err := LoadPlan(strings.NewReader(
		`{"version":1,"swaps":[{"id":"x","trigger_idx":5}]}`), Options{}); err == nil {
		t.Error("out-of-range trigger accepted")
	}
	if _, err := LoadPlan(strings.NewReader(
		`{"version":1,"swaps":[{"id":"x","trigger_idx":-2}]}`), Options{}); err == nil {
		t.Error("negative trigger other than -1 accepted")
	}
	if _, err := LoadPlan(strings.NewReader(
		`{"version":1,"swaps":[{"id":"x","trigger_idx":-1},{"id":"x","trigger_idx":-1}]}`), Options{}); err == nil {
		t.Error("duplicate swap accepted")
	}
	if _, err := LoadPlan(strings.NewReader(
		`{"version":1,"evictions":[{"id":"x","count":1,"action":"swap"}]}`), Options{}); err == nil {
		t.Error("eviction outside the access sequence accepted")
	}
}

// fuzzCell is the guided iteration FuzzLoadPlan drives a loaded plan
// through: resnet50 at batch 8 in 512 MiB, a cell that plans swaps and
// recomputes. Each run instantiates a fresh graph from one template.
type fuzzCell struct {
	tmpl *graph.Template
	dev  hw.DeviceSpec
}

func newFuzzCell(tb testing.TB) fuzzCell {
	spec, err := models.Get("resnet50")
	if err != nil {
		tb.Fatal(err)
	}
	tmpl, err := spec.Template(0, graph.GraphModeOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return fuzzCell{tmpl: tmpl, dev: device(512 * hw.MiB)}
}

// run drives pol for iters iterations on a fresh graph. Typed errors are
// outcomes; only a panic fails a caller.
func (fc fuzzCell) run(tb testing.TB, pol exec.Policy, iters int) ([]exec.IterStats, error) {
	g, err := fc.tmpl.Instantiate(8, nil)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := exec.NewSession(g, exec.Config{Device: fc.dev, Policy: pol, CollectiveRecompute: true})
	if err != nil {
		tb.Fatal(err)
	}
	return s.Run(iters)
}

// FuzzLoadPlan feeds arbitrary plans to LoadPlan and runs every plan it
// accepts through one guided resnet50 iteration. Malformed or foreign
// plans — unknown IDs, out-of-range or negative trigger indexes,
// duplicate swaps, access-sequence IDs the graph lacks — must be
// rejected or run, never panic; IDs the graph lacks match nothing.
func FuzzLoadPlan(f *testing.F) {
	fc := newFuzzCell(f)
	donor := New(Options{})
	if _, err := fc.run(f, donor, 2); err != nil {
		f.Fatal(err)
	}
	if sum := donor.Summary(); sum.SwapTensors == 0 || sum.RecomputeCount == 0 {
		f.Fatalf("seed cell no longer swaps and recomputes: %v", sum)
	}
	var buf bytes.Buffer
	if err := donor.ExportPlan(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version":1,"evictions":[{"id":"ghost","count":1,"action":"swap"}],` +
		`"swaps":[{"id":"ghost","size":1048576,"evict_count":1,"back_count":2,"trigger_idx":0}],` +
		`"access_sequence":[{"id":"ghost","count":1,"at_ns":5},{"id":"ghost","count":2,"at_ns":9}],"sizes":{"ghost":1048576}}`))
	f.Add([]byte(`{"version":1,"swaps":[{"id":"x","trigger_idx":-3}]}`))
	f.Add([]byte(`{"version":1,"swaps":[{"id":"x","trigger_idx":-1},{"id":"x","trigger_idx":-1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadPlan(bytes.NewReader(data), Options{})
		if err != nil {
			return
		}
		c.DescribePlan()
		fc.run(t, c, 1)
		if err := c.ExportPlan(io.Discard); err != nil {
			t.Fatalf("export after a guided iteration: %v", err)
		}
	})
}

// TestLoadPlanBindsByID pins how a loaded plan meets a graph: IDs the
// graph has bind to its tensors, a foreign ID matches nothing, and the
// plan — foreign entries included — survives the binding unchanged.
func TestLoadPlanBindsByID(t *testing.T) {
	fc := newFuzzCell(t)
	donor := New(Options{})
	want, err := fc.run(t, donor, 3)
	if err != nil {
		t.Fatal(err)
	}
	var dto planDTO
	var buf bytes.Buffer
	if err := donor.ExportPlan(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &dto); err != nil {
		t.Fatal(err)
	}
	// A foreign tensor evicted at its own access, plus a swap of it whose
	// in-trigger is a real access.
	dto.Seq = append(dto.Seq, seqEntryDTO{ID: "foreign:0", Count: 1, AtNS: dto.Seq[0].AtNS})
	dto.Evict = append(dto.Evict, evictDTO{ID: "foreign:0", Count: 1, Action: "swap"})
	dto.Swaps = append(dto.Swaps, swapPlanDTO{ID: "foreign:0", Size: 1 << 20, EvictCount: 1, BackCount: 2, TriggerIdx: 1})
	dto.Sizes["foreign:0"] = 1 << 20
	doctored, err := json.Marshal(&dto)
	if err != nil {
		t.Fatal(err)
	}
	c, err := LoadPlan(bytes.NewReader(doctored), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := c.ExportPlan(&before); err != nil {
		t.Fatal(err)
	}
	got, err := fc.run(t, c, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].LossFingerprint != want[i].LossFingerprint {
			t.Errorf("iter %d: loss fingerprint diverged under the loaded plan", i)
		}
	}
	if got[0].SwapOutCount == 0 {
		t.Error("loaded plan swapped nothing in its first iteration")
	}
	var after bytes.Buffer
	if err := c.ExportPlan(&after); err != nil {
		t.Fatal(err)
	}
	var a, b planDTO
	if err := json.Unmarshal(before.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(after.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	// Feedback may move in-triggers; everything else is the plan as
	// loaded, the foreign entries included.
	for i := range a.Swaps {
		a.Swaps[i].TriggerIdx, b.Swaps[i].TriggerIdx = 0, 0
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("binding to the graph changed the plan")
	}
}
