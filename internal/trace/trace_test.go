package trace

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/models"
	"capuchin/internal/sim"
	"capuchin/internal/testutil"
)

func TestRecorderCapturesAccesses(t *testing.T) {
	g := testutil.SmallCNN(t, 2, 16, graph.GraphModeOptions())
	rec := NewRecorder(nil, nil)
	s, err := exec.NewSession(g, exec.Config{Device: testutil.Device(hw.GiB), Policy: rec})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) != st.Accesses {
		t.Errorf("recorded %d events, executor reported %d accesses", len(rec.Events()), st.Accesses)
	}
	if rec.Name() != "tf-ori+trace" {
		t.Errorf("Name = %q", rec.Name())
	}
	var sb strings.Builder
	if err := rec.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "iter\ttensor") {
		t.Error("missing TSV header")
	}
	if !strings.Contains(out, "conv0:0") {
		t.Error("conv0 output access missing from trace")
	}
	rec.Reset()
	if len(rec.Events()) != 0 {
		t.Error("Reset did not clear events")
	}
}

func TestRecorderFilter(t *testing.T) {
	g := testutil.SmallCNN(t, 2, 16, graph.GraphModeOptions())
	rec := NewRecorder(nil, func(acc exec.Access) bool {
		return acc.Tensor.ID == "relu0:0"
	})
	s, err := exec.NewSession(g, exec.Config{Device: testutil.Device(hw.GiB), Policy: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunIteration(); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) == 0 {
		t.Fatal("filter recorded nothing")
	}
	for _, e := range rec.Events() {
		if e.TensorID != "relu0:0" {
			t.Errorf("filter leaked %s", e.TensorID)
		}
	}
}

// oomHandler is a policy with the exec.OOMHandler hook that counts its
// calls and gives up.
type oomHandler struct {
	exec.NullPolicy
	calls int
}

func (h *oomHandler) HandleOOM(int64, *exec.Env) (progress, ok bool) {
	h.calls++
	return false, false
}

// TestRecorderForwardsOOMHandler: recording a handler policy must keep
// the executor on its HandleOOM path, and recording any other policy
// must not invent the hook.
func TestRecorderForwardsOOMHandler(t *testing.T) {
	h := &oomHandler{}
	pol := NewRecorder(h, nil).Policy()
	if _, ok := pol.(exec.OOMHandler); !ok {
		t.Fatal("Recorder.Policy dropped the inner OOMHandler")
	}
	if _, ok := NewRecorder(nil, nil).Policy().(exec.OOMHandler); ok {
		t.Error("Recorder.Policy invented an OOMHandler for tf-ori")
	}
	g := testutil.SmallCNN(t, 2, 16, graph.GraphModeOptions())
	s, err := exec.NewSession(g, exec.Config{Device: testutil.Device(64 * hw.KiB), Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunIteration(); !errors.Is(err, exec.ErrIterationOOM) {
		t.Fatalf("RunIteration = %v, want an OOM", err)
	}
	if h.calls == 0 {
		t.Error("the executor never called the recorded policy's HandleOOM")
	}
}

func TestWriteSpansTSV(t *testing.T) {
	spans := []sim.Span{
		{Label: "conv0", Start: 0, End: 10 * sim.Microsecond},
		{Label: "swapout x", Start: 10 * sim.Microsecond, End: 30 * sim.Microsecond},
	}
	var sb strings.Builder
	if err := WriteSpansTSV(&sb, "d2h", spans); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "swapout x") || !strings.Contains(out, "d2h") {
		t.Errorf("spans TSV incomplete:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != 3 {
		t.Errorf("TSV has %d lines, want 3", got)
	}
}

// TestRecorderKeepsDynamicReplanning: recording a dynamic Capuchin run
// changes none of its stats. A Recorder that hid exec.Replanner kept the
// run from re-planning on shape switches.
func TestRecorderKeepsDynamicReplanning(t *testing.T) {
	spec, err := models.Get("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	run := func(record bool) ([]exec.IterStats, exec.DynamicStats) {
		sched, err := models.NewSchedule(models.ScheduleBatch, spec, 256, 1, 0)
		ec := exec.Config{Device: hw.P100().WithMemory(4 * hw.GiB)}
		if err == nil {
			err = ec.UsePolicy("capuchin", nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		if record {
			ec.Policy = NewRecorder(ec.Policy, nil).Policy()
		}
		d, err := exec.NewDynamicSession(exec.DynamicConfig{Base: ec, Schedule: sched,
			Build: func(b, seq int64) (*graph.Graph, error) {
				return spec.BuildShaped(b, seq, graph.GraphModeOptions())
			}})
		if err != nil {
			t.Fatal(err)
		}
		sts, err := d.Run(12)
		if err != nil {
			t.Fatal(err)
		}
		return sts, d.Stats()
	}
	plain, plainDyn := run(false)
	recorded, recordedDyn := run(true)
	if plainDyn.Replans == 0 || recordedDyn != plainDyn {
		t.Errorf("DynamicStats with the Recorder %+v, without %+v (want replans)", recordedDyn, plainDyn)
	}
	for i := range plain {
		if !reflect.DeepEqual(recorded[i], plain[i]) {
			t.Fatalf("iteration %d with the Recorder: %+v\nwithout: %+v", i, recorded[i], plain[i])
		}
	}
}
