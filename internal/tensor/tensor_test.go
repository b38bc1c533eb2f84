package tensor

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDTypeSize(t *testing.T) {
	cases := []struct {
		d    DType
		want int64
	}{
		{Float32, 4}, {Float16, 2}, {Int32, 4}, {Int64, 8}, {Bool, 1},
	}
	for _, c := range cases {
		if got := c.d.Size(); got != c.want {
			t.Errorf("%v.Size() = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestDTypeString(t *testing.T) {
	if Float32.String() != "f32" || Int64.String() != "i64" {
		t.Error("DType.String mismatch")
	}
}

func TestShapeElems(t *testing.T) {
	cases := []struct {
		s    Shape
		want int64
	}{
		{Shape{}, 1},
		{Shape{5}, 5},
		{Shape{64, 3, 224, 224}, 64 * 3 * 224 * 224},
		{Shape{2, 0, 3}, 0},
	}
	for _, c := range cases {
		if got := c.s.Elems(); got != c.want {
			t.Errorf("%v.Elems() = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestShapeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative dimension")
		}
	}()
	Shape{2, -1}.Elems()
}

func TestShapeEqual(t *testing.T) {
	if !(Shape{1, 2}).Equal(Shape{1, 2}) {
		t.Error("equal shapes reported unequal")
	}
	if (Shape{1, 2}).Equal(Shape{1, 2, 3}) || (Shape{1, 2}).Equal(Shape{2, 1}) {
		t.Error("unequal shapes reported equal")
	}
}

func TestShapeString(t *testing.T) {
	if got := (Shape{64, 3, 224, 224}).String(); got != "[64 3 224 224]" {
		t.Errorf("String() = %q", got)
	}
	if got := (Shape{}).String(); got != "[]" {
		t.Errorf("empty String() = %q", got)
	}
}

func TestTensorBytes(t *testing.T) {
	tt := New("x", Shape{2, 3}, Float32)
	if got := tt.Bytes(); got != 24 {
		t.Errorf("Bytes = %d, want 24", got)
	}
	th := New("y", Shape{2, 3}, Float16)
	if got := th.Bytes(); got != 12 {
		t.Errorf("f16 Bytes = %d, want 12", got)
	}
}

func TestStatusStrings(t *testing.T) {
	want := map[Status]string{
		In: "IN", SwappingOut: "SWAPPING_OUT", Out: "OUT",
		SwappingIn: "SWAPPING_IN", Recompute: "RECOMPUTE", Freed: "FREED",
	}
	for st, w := range want {
		if st.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(st), st.String(), w)
		}
	}
}

func TestStatusMachineSwapCycle(t *testing.T) {
	tt := New("x", Shape{4}, Float32)
	// Freed -> In (produced) -> SwappingOut -> Out -> SwappingIn -> In.
	seq := []Status{In, SwappingOut, Out, SwappingIn, In}
	for _, st := range seq {
		if err := tt.TransitionTo(st); err != nil {
			t.Fatalf("legal transition rejected: %v", err)
		}
	}
}

func TestStatusMachineRecomputeCycle(t *testing.T) {
	tt := New("x", Shape{4}, Float32)
	for _, st := range []Status{In, Recompute, In, Freed} {
		if err := tt.TransitionTo(st); err != nil {
			t.Fatalf("legal transition rejected: %v", err)
		}
	}
}

func TestStatusMachineCancelledSwapOut(t *testing.T) {
	// A tensor re-accessed while swapping out stays on device: the paper's
	// decoupled swap allows the computation to keep using it.
	tt := New("x", Shape{4}, Float32)
	for _, st := range []Status{In, SwappingOut, In} {
		if err := tt.TransitionTo(st); err != nil {
			t.Fatalf("legal transition rejected: %v", err)
		}
	}
}

func TestStatusMachineIllegal(t *testing.T) {
	illegal := []struct{ from, to Status }{
		{Freed, Out},
		{Freed, SwappingIn},
		{Out, In}, // must pass through SwappingIn
		{Recompute, Out},
		{SwappingOut, Recompute},
	}
	for _, c := range illegal {
		tt := New("x", Shape{4}, Float32)
		tt.Status = c.from
		if err := tt.TransitionTo(c.to); err == nil {
			t.Errorf("illegal transition %v -> %v accepted", c.from, c.to)
		}
	}
}

// TestStatusMachineOutOfRange: the transition table is an array indexed
// by Status, so a corrupt status on either side must still come back as
// the illegal-transition error rather than an index or shift panic.
func TestStatusMachineOutOfRange(t *testing.T) {
	for _, c := range []struct{ from, to Status }{
		{Status(99), In},
		{Status(-1), In},
		{In, Status(99)},
		{In, Status(-1)},
		{In, Status(8)}, // past the table's bit width
		{Freed + 1, Freed + 1},
	} {
		tt := New("x", Shape{4}, Float32)
		tt.Status = c.from
		err := tt.TransitionTo(c.to)
		if err == nil || !strings.Contains(err.Error(), "illegal status transition") {
			t.Errorf("%v -> %v: err = %v, want an illegal status transition", c.from, c.to, err)
		}
		if tt.Status != c.from {
			t.Errorf("%v -> %v: rejected transition moved the status to %v", c.from, c.to, tt.Status)
		}
	}
}

func TestResidentAndOnDevice(t *testing.T) {
	tt := New("x", Shape{4}, Float32)
	cases := []struct {
		st       Status
		resident bool
		onDev    bool
	}{
		{In, true, true},
		{SwappingOut, true, true},
		{Out, false, false},
		{SwappingIn, false, true},
		{Recompute, false, false},
		{Freed, false, false},
	}
	for _, c := range cases {
		tt.Status = c.st
		if tt.Resident() != c.resident {
			t.Errorf("%v: Resident = %v, want %v", c.st, tt.Resident(), c.resident)
		}
		if tt.OnDevice() != c.onDev {
			t.Errorf("%v: OnDevice = %v, want %v", c.st, tt.OnDevice(), c.onDev)
		}
	}
}

func TestTouch(t *testing.T) {
	tt := New("x", Shape{4}, Float32)
	if n := tt.Touch(100); n != 1 {
		t.Errorf("first Touch = %d, want 1", n)
	}
	if n := tt.Touch(200); n != 2 {
		t.Errorf("second Touch = %d, want 2", n)
	}
	if tt.LastAccess != 200 {
		t.Errorf("LastAccess = %d, want 200", tt.LastAccess)
	}
}

func TestResetIteration(t *testing.T) {
	tt := New("x", Shape{4}, Float32)
	tt.TransitionTo(In)
	tt.Fingerprint = 42
	tt.Touch(10)
	tt.ResetIteration()
	if tt.Status != Freed || tt.Fingerprint != 0 || tt.AccessCount != 0 || tt.LastAccess != 0 {
		t.Errorf("ResetIteration left state: %+v", tt)
	}

	w := New("w", Shape{4}, Float32)
	w.Persistent = true
	w.TransitionTo(In)
	w.Fingerprint = 42
	w.ResetIteration()
	if w.Status != In || w.Fingerprint != 42 {
		t.Error("ResetIteration cleared persistent tensor state")
	}
}

func TestFingerprintDeterminism(t *testing.T) {
	a := ComputeFingerprint("conv1", 0, []uint64{1, 2, 3})
	b := ComputeFingerprint("conv1", 0, []uint64{1, 2, 3})
	if a != b {
		t.Error("fingerprint not deterministic")
	}
	if a == ComputeFingerprint("conv2", 0, []uint64{1, 2, 3}) {
		t.Error("fingerprint ignores op ID")
	}
	if a == ComputeFingerprint("conv1", 1, []uint64{1, 2, 3}) {
		t.Error("fingerprint ignores output index")
	}
	if a == ComputeFingerprint("conv1", 0, []uint64{1, 2, 4}) {
		t.Error("fingerprint ignores inputs")
	}
	if a == ComputeFingerprint("conv1", 0, []uint64{2, 1, 3}) {
		t.Error("fingerprint ignores input order")
	}
}

// Property: fingerprints depend on every input and are order-sensitive.
func TestFingerprintSensitivityProperty(t *testing.T) {
	f := func(op string, idx uint8, ins []uint64, flip uint8) bool {
		if len(ins) == 0 {
			return true
		}
		orig := ComputeFingerprint(op, int(idx), ins)
		j := int(flip) % len(ins)
		mutated := make([]uint64, len(ins))
		copy(mutated, ins)
		mutated[j] ^= 1
		return orig != ComputeFingerprint(op, int(idx), mutated)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHashCombineMatchesFNVLoop pins the unrolled HashCombine to the
// byte-at-a-time FNV-1a loop it replaces: every fingerprint in the
// simulator is built from it, so one changed bit moves them all.
func TestHashCombineMatchesFNVLoop(t *testing.T) {
	loop := func(h, v uint64) uint64 {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= fnv64Prime
		}
		return h
	}
	f := func(h, v uint64) bool { return HashCombine(h, v) == loop(h, v) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, v := range []uint64{0, 1, 0xff, 1 << 63, ^uint64(0), 0x0123456789abcdef} {
		if !f(fnv64Offset, v) {
			t.Errorf("HashCombine(offset, %#x) differs from the FNV loop", v)
		}
	}
	if FingerprintFrom(HashSeed("conv1"), 2, []uint64{7, 9}) != ComputeFingerprint("conv1", 2, []uint64{7, 9}) {
		t.Error("FingerprintFrom with a precomputed seed differs from ComputeFingerprint")
	}
}

func TestTensorString(t *testing.T) {
	tt := New("conv1:0", Shape{2, 3}, Float32)
	got := tt.String()
	want := "conv1:0[2 3]:f32(FREED)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
