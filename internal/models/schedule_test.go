package models

import (
	"testing"

	"capuchin/internal/graph"
)

func mustSpec(t *testing.T, name string) Spec {
	t.Helper()
	spec, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestScheduleConstant(t *testing.T) {
	spec := mustSpec(t, "bert")
	sc, err := NewSchedule(ScheduleConstant, spec, 16, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 32; iter++ {
		b, s := sc.At(iter)
		if b != 16 || s != spec.DefaultSeq {
			t.Fatalf("iter %d: shape (%d,%d), want (16,%d)", iter, b, s, spec.DefaultSeq)
		}
	}
	// The zero value is also a constant schedule.
	var zero Schedule
	zero.Batch, zero.Seq = 8, 0
	if b, s := zero.At(5); b != 8 || s != 0 {
		t.Fatalf("zero-value schedule drifted: (%d,%d)", b, s)
	}
}

func TestScheduleDeterministicAndDrifting(t *testing.T) {
	spec := mustSpec(t, "bert")
	sc, err := NewSchedule(ScheduleMixed, spec, 32, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := NewSchedule(ScheduleMixed, spec, 32, 42, 2)
	sigs := map[[2]int64]bool{}
	for iter := 0; iter < 64; iter++ {
		b, s := sc.At(iter)
		b2, s2 := again.At(iter)
		if b != b2 || s != s2 {
			t.Fatalf("iter %d: same seed disagrees: (%d,%d) vs (%d,%d)", iter, b, s, b2, s2)
		}
		// Draws stay within the declared ladders.
		switch b {
		case 32, 24, 16:
		default:
			t.Fatalf("iter %d: batch %d outside ladder {32,24,16}", iter, b)
		}
		found := false
		for _, bucket := range spec.SeqBuckets {
			if s == bucket {
				found = true
			}
		}
		if !found {
			t.Fatalf("iter %d: seq %d outside buckets %v", iter, s, spec.SeqBuckets)
		}
		sigs[[2]int64{b, s}] = true
	}
	if len(sigs) < 3 {
		t.Fatalf("mixed schedule produced %d signatures over 64 iterations, want >= 3", len(sigs))
	}
	// Iteration 0 (the whole first period) anchors at the base shape.
	if b, s := sc.At(0); b != 32 || s != spec.DefaultSeq {
		t.Fatalf("iter 0 shape (%d,%d), want base (32,%d)", b, s, spec.DefaultSeq)
	}
	if b, s := sc.At(1); b != 32 || s != spec.DefaultSeq {
		t.Fatalf("iter 1 shape (%d,%d), want base (period 2)", b, s)
	}
}

func TestScheduleSignatureStableWithinPeriod(t *testing.T) {
	spec := mustSpec(t, "lstm")
	sc, err := NewSchedule(ScheduleSeq, spec, 64, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 40; iter += 4 {
		b, s := sc.At(iter)
		for k := 1; k < 4; k++ {
			if b2, s2 := sc.At(iter + k); b2 != b || s2 != s {
				t.Fatalf("iter %d: shape (%d,%d) != period start (%d,%d)", iter+k, b2, s2, b, s)
			}
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	bert := mustSpec(t, "bert")
	if _, err := NewSchedule("wobble", bert, 8, 1, 2); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := NewSchedule(ScheduleBatch, bert, 0, 1, 2); err == nil {
		t.Error("zero batch accepted")
	}
	resnet := mustSpec(t, "resnet50")
	if _, err := NewSchedule(ScheduleSeq, resnet, 8, 1, 2); err == nil {
		t.Error("seq schedule accepted for a model without a sequence axis")
	}
	if _, err := NewSchedule(ScheduleBatch, resnet, 8, 1, 2); err != nil {
		t.Errorf("batch schedule rejected for resnet50: %v", err)
	}
}

// TestBuildShapedDefaultMatchesBuild pins the superset contract: every
// seq-parameterized builder at its default length constructs the same
// graph as the legacy builder, and BuildShaped with seq 0 falls back to
// Build for every model.
func TestBuildShapedDefaultMatchesBuild(t *testing.T) {
	for _, name := range []string{"bert", "lstm", "gru"} {
		spec := mustSpec(t, name)
		base, err := spec.Build(4, graph.GraphModeOptions())
		if err != nil {
			t.Fatal(err)
		}
		seq, err := spec.BuildShaped(4, spec.DefaultSeq, graph.GraphModeOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(base.Nodes) != len(seq.Nodes) {
			t.Errorf("%s: node count %d != %d at default seq", name, len(seq.Nodes), len(base.Nodes))
		}
		var baseBytes, seqBytes int64
		for _, tt := range base.TensorList() {
			baseBytes += tt.Bytes()
		}
		for _, tt := range seq.TensorList() {
			seqBytes += tt.Bytes()
		}
		if baseBytes != seqBytes {
			t.Errorf("%s: tensor bytes %d != %d at default seq", name, seqBytes, baseBytes)
		}
	}
}

// TestBuildSeqScalesFootprint pins that shorter buckets genuinely
// shrink the workload (the premise of per-bucket re-planning).
func TestBuildSeqScalesFootprint(t *testing.T) {
	for _, name := range []string{"bert", "lstm", "gru"} {
		spec := mustSpec(t, name)
		short := spec.SeqBuckets[0]
		gShort, err := spec.BuildShaped(4, short, graph.GraphModeOptions())
		if err != nil {
			t.Fatalf("%s at seq %d: %v", name, short, err)
		}
		gFull, err := spec.BuildShaped(4, spec.DefaultSeq, graph.GraphModeOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := gShort.Validate(); err != nil {
			t.Fatalf("%s at seq %d: %v", name, short, err)
		}
		var shortAct, fullAct int64
		for _, tt := range gShort.TensorList() {
			if !tt.Persistent {
				shortAct += tt.Bytes()
			}
		}
		for _, tt := range gFull.TensorList() {
			if !tt.Persistent {
				fullAct += tt.Bytes()
			}
		}
		if shortAct >= fullAct {
			t.Errorf("%s: activation bytes %d at seq %d >= %d at seq %d",
				name, shortAct, short, fullAct, spec.DefaultSeq)
		}
		if countParams(gShort) != countParams(gFull) {
			t.Errorf("%s: parameter count depends on sequence length", name)
		}
	}
}

func TestScheduleInvalidSeqRejected(t *testing.T) {
	for _, name := range []string{"bert", "lstm", "gru"} {
		spec := mustSpec(t, name)
		if _, err := spec.BuildShaped(4, -1, graph.GraphModeOptions()); err == nil {
			t.Errorf("%s accepted negative sequence length", name)
		}
	}
}
