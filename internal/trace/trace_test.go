package trace_test

import (
	"slices"
	"strings"
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
	"capuchin/internal/testutil"
	"capuchin/internal/trace"
)

// smallTape runs one iteration of the small CNN under tf-ori with a
// Collector attached and returns the tape folded from its log and the
// iteration's stats.
func smallTape(t *testing.T) ([]trace.Event, exec.IterStats) {
	t.Helper()
	g := testutil.SmallCNN(t, 2, 16, graph.GraphModeOptions())
	col := obs.NewCollector()
	s, err := exec.NewSession(g, exec.Config{Device: testutil.Device(hw.GiB), Tracer: col})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	return trace.Tape(g, col.Events(), col.Decisions()), st
}

func TestRecorderCapturesAccesses(t *testing.T) {
	tape, st := smallTape(t)
	if len(tape) != st.Accesses {
		t.Errorf("tape holds %d accesses, executor reported %d", len(tape), st.Accesses)
	}
	var sb strings.Builder
	if err := trace.WriteTSV(&sb, tape); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "iter\ttensor") {
		t.Error("missing TSV header")
	}
	if !strings.Contains(out, "conv0:0") {
		t.Error("conv0 output access missing from trace")
	}
}

// TestRecorderFilter: keeping one tensor's accesses, as capuchin-trace
// -tensors does, leaves a non-empty tape of that tensor alone, with the
// counts it had on the full tape.
func TestRecorderFilter(t *testing.T) {
	tape, _ := smallTape(t)
	kept := slices.DeleteFunc(slices.Clone(tape), func(e trace.Event) bool { return e.TensorID != "relu0:0" })
	if len(kept) == 0 {
		t.Fatal("filter kept nothing")
	}
	for i, e := range kept {
		if e.TensorID != "relu0:0" {
			t.Errorf("filter leaked %s", e.TensorID)
		}
		if e.Kind != exec.Dealloc && e.Count != i+1 {
			t.Errorf("access %d of relu0:0 has count %d", i+1, e.Count)
		}
	}
}

func TestWriteSpansTSV(t *testing.T) {
	spans := []obs.Event{
		{Kind: obs.KindSpan, Name: "conv0", Start: 0, End: 10 * sim.Microsecond},
		{Kind: obs.KindSpan, Name: "swapout x", Start: 10 * sim.Microsecond, End: 30 * sim.Microsecond},
	}
	var sb strings.Builder
	if err := trace.WriteSpansTSV(&sb, "d2h", spans); err != nil {
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
