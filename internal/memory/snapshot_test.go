package memory

import (
	"math"
	"testing"
)

func TestSnapshotFragmentation(t *testing.T) {
	cases := []struct {
		s    Snapshot
		want float64
	}{
		{Snapshot{Used: 0, Free: 1024, LargestFree: 1024}, 0},    // untouched pool
		{Snapshot{Used: 1024, Free: 0, LargestFree: 0}, 0},       // full pool
		{Snapshot{Used: 512, Free: 1000, LargestFree: 250}, .75}, // shredded
	}
	for _, c := range cases {
		if got := FragRatio(c.s.LargestFree, c.s.Free); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%+v: fragmentation %v, want %v", c.s, got, c.want)
		}
	}
}

// TestFragRatioClamped is the regression test for degenerate allocator
// samples leaking out of the unit interval: before FragRatio, a sample
// with LargestFree exceeding Free (possible transiently under chunk
// rounding) produced a negative "fragmentation", and a 0/0 sample relied
// on every call site remembering its own guard. The shared helper must
// clamp every input to [0, 1] and never return NaN.
func TestFragRatioClamped(t *testing.T) {
	cases := []struct {
		largest, free int64
		want          float64
	}{
		{0, 0, 0},        // empty pool: the 0/0 case
		{1024, 1024, 0},  // fully-free pool, one region
		{250, 1000, .75}, // ordinary fragmentation
		{2048, 1024, 0},  // largest beyond free: clamp below at 0
		{-512, 1024, 1},  // negative largest: clamp above at 1
		{512, -1024, 0},  // negative free: treated as nothing free
		{0, 1024, 1},     // free space but no usable region
	}
	for _, c := range cases {
		got := FragRatio(c.largest, c.free)
		if math.IsNaN(got) {
			t.Fatalf("FragRatio(%d, %d) is NaN", c.largest, c.free)
		}
		if got < 0 || got > 1 {
			t.Fatalf("FragRatio(%d, %d) = %v outside [0, 1]", c.largest, c.free, got)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("FragRatio(%d, %d) = %v, want %v", c.largest, c.free, got, c.want)
		}
	}
	// An inconsistent snapshot's fields clamp the same way.
	s := Snapshot{Free: 1024, LargestFree: 4096}
	if got := FragRatio(s.LargestFree, s.Free); got != 0 {
		t.Errorf("inconsistent snapshot fragmentation = %v, want clamped 0", got)
	}
}

// TestSnapMatchesPool pins Snap against the allocator's own accessors
// through an alloc/free sequence that splits the address space.
func TestSnapMatchesPool(t *testing.T) {
	p := NewBFC(1 << 20)
	a, err := p.Alloc(256 << 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Alloc(256 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	snap := Snap(p)
	if snap.Used != p.Used() || snap.Free != p.FreeBytes() || snap.LargestFree != p.LargestFree() {
		t.Errorf("snapshot %+v diverges from pool (used %d, free %d, largest %d)",
			snap, p.Used(), p.FreeBytes(), p.LargestFree())
	}
	if snap.Used == 0 || snap.Free == 0 {
		t.Fatalf("degenerate snapshot %+v", snap)
	}
	// Freeing the first chunk left a hole: the largest contiguous region
	// is smaller than the total free space.
	if snap.LargestFree >= snap.Free {
		t.Errorf("expected fragmentation after hole-punch: %+v", snap)
	}
	if f := FragRatio(snap.LargestFree, snap.Free); f <= 0 || f >= 1 {
		t.Errorf("fragmentation %v out of (0,1)", f)
	}
	MustFree(p, b)
}
