package memory

import (
	"errors"
	"math/rand"
	"testing"
)

func TestBinIndex(t *testing.T) {
	cases := []struct {
		size int64
		want int
	}{
		{256, 0},
		{511, 0},
		{512, 1},
		{1024, 2},
		{256 << 10, 10},
		{1 << 30, 22},
	}
	for _, c := range cases {
		if got := binIndex(c.size); got != c.want {
			t.Errorf("binIndex(%d) = %d, want %d", c.size, got, c.want)
		}
	}
	// Huge sizes clamp to the last bin.
	if got := binIndex(1 << 62); got != numBins-1 {
		t.Errorf("binIndex(huge) = %d, want %d", got, numBins-1)
	}
}

func TestRoundUp(t *testing.T) {
	cases := []struct{ in, want int64 }{
		{0, 256}, {1, 256}, {256, 256}, {257, 512}, {1000, 1024},
	}
	for _, c := range cases {
		if got := roundUp(c.in); got != c.want {
			t.Errorf("roundUp(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestBFCAllocFree(t *testing.T) {
	a := NewBFC(1 << 20)
	al, err := a.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if al.Size != 1024 || al.Requested != 1000 {
		t.Errorf("allocation = %+v, want size 1024 requested 1000", al)
	}
	if a.Used() != 1024 || a.InUseRequested() != 1000 {
		t.Errorf("Used = %d, InUseRequested = %d", a.Used(), a.InUseRequested())
	}
	a.Free(al)
	if a.Used() != 0 || a.FreeBytes() != a.Capacity() {
		t.Errorf("after free: used %d, free %d", a.Used(), a.FreeBytes())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBFCCoalescing(t *testing.T) {
	a := NewBFC(1 << 20)
	var als []*Allocation
	for i := 0; i < 4; i++ {
		al, err := a.Alloc(256 << 10 / 4)
		if err != nil {
			t.Fatal(err)
		}
		als = append(als, al)
	}
	// Free middle two, then the ends; everything must coalesce back.
	a.Free(als[1])
	a.Free(als[2])
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	a.Free(als[0])
	a.Free(als[3])
	if got := a.LargestFree(); got != a.Capacity() {
		t.Errorf("LargestFree = %d after full free, want capacity %d", got, a.Capacity())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBFCBestFit(t *testing.T) {
	a := NewBFC(1 << 20)
	// Carve out free holes of 4K and 8K separated by live chunks.
	l1, _ := a.Alloc(256)
	hole4k, _ := a.Alloc(4 << 10)
	l2, _ := a.Alloc(256)
	hole8k, _ := a.Alloc(8 << 10)
	l3, _ := a.Alloc(256)
	a.Free(hole4k)
	a.Free(hole8k)
	// A 3K request must take the 4K hole (best fit), not the 8K one.
	got, err := a.Alloc(3 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if got.Offset != 256 {
		t.Errorf("3K landed at offset %d, want 256 (inside the 4K hole)", got.Offset)
	}
	for _, al := range []*Allocation{l1, l2, l3, got} {
		a.Free(al)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBFCOOM(t *testing.T) {
	a := NewBFC(1 << 20)
	if _, err := a.Alloc(2 << 20); err == nil {
		t.Fatal("oversized allocation succeeded")
	} else {
		if !errors.Is(err, ErrOOM) {
			t.Errorf("error does not match ErrOOM: %v", err)
		}
		var oe *OOMError
		if !errors.As(err, &oe) {
			t.Fatalf("error is not *OOMError: %T", err)
		}
		if oe.Requested != 2<<20 || oe.Capacity != 1<<20 || oe.FreeBytes != 1<<20 {
			t.Errorf("OOM detail wrong: %+v", oe)
		}
		if oe.Error() == "" {
			t.Error("empty OOM message")
		}
	}
}

func TestBFCFragmentationOOM(t *testing.T) {
	// Total free space is sufficient but no contiguous chunk is: the
	// canonical fragmentation OOM.
	a := NewBFC(1 << 20)
	var als []*Allocation
	for a.FreeBytes() >= 64<<10 {
		al, err := a.Alloc(64 << 10)
		if err != nil {
			t.Fatal(err)
		}
		als = append(als, al)
	}
	// Free every other chunk: half the memory free, largest hole 64K.
	for i := 0; i < len(als); i += 2 {
		a.Free(als[i])
	}
	if _, err := a.Alloc(128 << 10); !errors.Is(err, ErrOOM) {
		t.Fatalf("expected fragmentation OOM, got %v", err)
	}
	var oe *OOMError
	_, err := a.Alloc(128 << 10)
	if !errors.As(err, &oe) {
		t.Fatal("no OOMError")
	}
	if oe.LargestFree != 64<<10 {
		t.Errorf("LargestFree = %d, want 64K", oe.LargestFree)
	}
	if oe.FreeBytes < 512<<10 {
		t.Errorf("FreeBytes = %d, want >= 512K", oe.FreeBytes)
	}
	if s := a.Stats(); s.Fragmentation < 0.5 {
		t.Errorf("Fragmentation = %.2f, want >= 0.5", s.Fragmentation)
	}
}

func TestBFCDoubleFreeError(t *testing.T) {
	a := NewBFC(1 << 20)
	al, _ := a.Alloc(512)
	if err := a.Free(al); err != nil {
		t.Fatal(err)
	}
	err := a.Free(al)
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("double free returned %v, want ErrInvariant", err)
	}
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("double free error is %T, want *InvariantError", err)
	}
	if ie.Allocator != "bfc" || ie.Op != "free" || ie.Offset != al.Offset || ie.Size != al.Size {
		t.Errorf("invariant diagnostics = %+v", ie)
	}
	// The failed free must not corrupt accounting.
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBFCWrongAllocatorError(t *testing.T) {
	a := NewBFC(1 << 20)
	b := NewBFC(1 << 20)
	al, _ := a.Alloc(512)
	if err := b.Free(al); !errors.Is(err, ErrInvariant) {
		t.Fatalf("cross-allocator free returned %v, want ErrInvariant", err)
	}
	// The allocation is still live in its true owner.
	if err := a.Free(al); err != nil {
		t.Fatalf("owner free after rejected cross-free: %v", err)
	}
}

func TestMustFree(t *testing.T) {
	a := NewBFC(1 << 20)
	al, _ := a.Alloc(512)
	MustFree(a, al) // legal free must not panic
	defer func() {
		if recover() == nil {
			t.Fatal("MustFree of a double free did not panic")
		}
	}()
	MustFree(a, al)
}

func TestFreeNilError(t *testing.T) {
	a := NewBFC(1 << 20)
	if err := a.Free(nil); !errors.Is(err, ErrInvariant) {
		t.Fatalf("Free(nil) returned %v, want ErrInvariant", err)
	}
}

func TestBFCPeak(t *testing.T) {
	a := NewBFC(1 << 20)
	a1, _ := a.Alloc(512 << 10)
	a2, _ := a.Alloc(256 << 10)
	a.Free(a1)
	a.Free(a2)
	if a.Peak() != (512+256)<<10 {
		t.Errorf("Peak = %d, want %d", a.Peak(), (512+256)<<10)
	}
}

func TestBFCZeroSizeAlloc(t *testing.T) {
	a := NewBFC(1 << 20)
	al, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if al.Size != minChunkSize {
		t.Errorf("zero alloc size = %d, want %d", al.Size, minChunkSize)
	}
	a.Free(al)
}

func TestBFCExhaustiveFill(t *testing.T) {
	// The allocator must hand out its entire capacity in minimum chunks.
	a := NewBFC(64 << 10)
	var als []*Allocation
	for {
		al, err := a.Alloc(minChunkSize)
		if err != nil {
			break
		}
		als = append(als, al)
	}
	if got := int64(len(als)) * minChunkSize; got != a.Capacity() {
		t.Errorf("filled %d bytes, capacity %d", got, a.Capacity())
	}
	for _, al := range als {
		a.Free(al)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// churn exercises any Pool with a random alloc/free sequence and verifies
// accounting. Returns the allocations still live.
func churn(t *testing.T, p Pool, seed int64, rounds int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	type live struct{ al *Allocation }
	var lives []live
	var wantUsed int64
	for i := 0; i < rounds; i++ {
		if rng.Intn(3) != 0 || len(lives) == 0 {
			size := int64(rng.Intn(1 << 16))
			al, err := p.Alloc(size)
			if errors.Is(err, ErrOOM) {
				// Free something and continue.
				if len(lives) == 0 {
					t.Fatal("OOM with nothing allocated")
				}
				j := rng.Intn(len(lives))
				wantUsed -= lives[j].al.Size
				p.Free(lives[j].al)
				lives = append(lives[:j], lives[j+1:]...)
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			wantUsed += al.Size
			lives = append(lives, live{al})
		} else {
			j := rng.Intn(len(lives))
			wantUsed -= lives[j].al.Size
			p.Free(lives[j].al)
			lives = append(lives[:j], lives[j+1:]...)
		}
		if p.Used() != wantUsed {
			t.Fatalf("round %d: Used = %d, want %d", i, p.Used(), wantUsed)
		}
	}
	for _, l := range lives {
		p.Free(l.al)
	}
	if p.Used() != 0 {
		t.Fatalf("leak: Used = %d after freeing everything", p.Used())
	}
	if p.LargestFree() != p.Capacity() {
		t.Fatalf("failed to coalesce: LargestFree = %d, capacity %d", p.LargestFree(), p.Capacity())
	}
}

// Property: under random churn the BFC allocator keeps exact accounting,
// never corrupts its chunk list, and coalesces completely.
func TestBFCChurnProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		a := NewBFC(1 << 20)
		churn(t, a, seed, 2000)
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// Property: allocations never overlap and stay within the region.
func TestBFCNoOverlapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewBFC(1 << 20)
	var lives []*Allocation
	for i := 0; i < 3000; i++ {
		if rng.Intn(2) == 0 || len(lives) == 0 {
			al, err := a.Alloc(int64(rng.Intn(1 << 14)))
			if err != nil {
				continue
			}
			if al.Offset < 0 || al.Offset+al.Size > a.Capacity() {
				t.Fatalf("allocation [%d,%d) outside region", al.Offset, al.Offset+al.Size)
			}
			for _, o := range lives {
				if al.Offset < o.Offset+o.Size && o.Offset < al.Offset+al.Size {
					t.Fatalf("overlap: [%d,%d) and [%d,%d)", al.Offset, al.Offset+al.Size, o.Offset, o.Offset+o.Size)
				}
			}
			lives = append(lives, al)
		} else {
			j := rng.Intn(len(lives))
			a.Free(lives[j])
			lives = append(lives[:j], lives[j+1:]...)
		}
	}
}

// Property: the bitmask-backed LargestFree equals a brute-force scan of
// the chunk list after every step of random alloc/free sequences, and
// the occupied-bin mask stays consistent with the bins.
func TestBFCLargestFreeMatchesScan(t *testing.T) {
	scan := func(a *BFC) int64 {
		var largest int64
		for c := a.head; c != nil; c = c.next {
			if !c.inUse && c.size > largest {
				largest = c.size
			}
		}
		return largest
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := NewBFC(1 << 20)
		var lives []*Allocation
		for i := 0; i < 2000; i++ {
			if rng.Intn(3) != 0 || len(lives) == 0 {
				// Sizes span many bins, and big ones fill the pool up.
				if al := a.TryAlloc(int64(rng.Intn(256)) << uint(rng.Intn(11))); al != nil {
					lives = append(lives, al)
				}
			} else {
				j := rng.Intn(len(lives))
				MustFree(a, lives[j])
				lives = append(lives[:j], lives[j+1:]...)
			}
			if got, want := a.LargestFree(), scan(a); got != want {
				t.Fatalf("seed %d step %d: LargestFree = %d, chunk scan = %d", seed, i, got, want)
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
		}
	}
}

func TestFirstFitChurn(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		churn(t, NewFirstFit(1<<20), seed, 2000)
	}
}

func TestFirstFitTakesFirstHole(t *testing.T) {
	a := NewFirstFit(1 << 20)
	l1, _ := a.Alloc(256)
	hole4k, _ := a.Alloc(4 << 10)
	l2, _ := a.Alloc(256)
	hole8k, _ := a.Alloc(8 << 10)
	a.Free(hole4k)
	a.Free(hole8k)
	// First-fit takes the 4K hole for a 2K request even though best-fit
	// considerations do not apply; but for a 6K request it must skip to
	// the 8K hole.
	got, err := a.Alloc(6 << 10)
	if err != nil {
		t.Fatal(err)
	}
	wantOffset := l2.Offset + l2.Size
	if got.Offset != wantOffset {
		t.Errorf("6K landed at %d, want %d (the 8K hole)", got.Offset, wantOffset)
	}
	_ = l1
}

func TestFirstFitDoubleFreeError(t *testing.T) {
	a := NewFirstFit(1 << 20)
	al, _ := a.Alloc(512)
	if err := a.Free(al); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(al); !errors.Is(err, ErrInvariant) {
		t.Fatalf("double free returned %v, want ErrInvariant", err)
	}
}

func TestPoolNames(t *testing.T) {
	if NewBFC(1<<20).Name() != "bfc" {
		t.Error("BFC name")
	}
	if NewFirstFit(1<<20).Name() != "firstfit" {
		t.Error("FirstFit name")
	}
}

func TestStatsSnapshot(t *testing.T) {
	a := NewBFC(1 << 20)
	al, _ := a.Alloc(1024)
	s := a.Stats()
	if s.Allocs != 1 || s.Frees != 0 || s.Used != 1024 || s.Capacity != 1<<20 {
		t.Errorf("stats = %+v", s)
	}
	a.Free(al)
	s = a.Stats()
	if s.Frees != 1 || s.Used != 0 || s.Fragmentation != 0 {
		t.Errorf("stats after free = %+v", s)
	}
}

func TestBinsOccupancy(t *testing.T) {
	a := NewBFC(1 << 20)
	// Fresh allocator: one free chunk covering the whole region.
	bins := a.Bins()
	if len(bins) != 1 || bins[0].FreeBytes != 1<<20 || bins[0].FreeChunks != 1 {
		t.Fatalf("fresh bins = %+v", bins)
	}
	// Carve two different-size holes.
	l1, _ := a.Alloc(256)
	h1, _ := a.Alloc(4 << 10)
	l2, _ := a.Alloc(256)
	h2, _ := a.Alloc(64 << 10)
	l3, _ := a.Alloc(256)
	a.Free(h1)
	a.Free(h2)
	bins = a.Bins()
	var total int64
	var chunks int
	for i := 1; i < len(bins); i++ {
		if bins[i].Bin <= bins[i-1].Bin {
			t.Error("bins not sorted")
		}
	}
	for _, b := range bins {
		total += b.FreeBytes
		chunks += b.FreeChunks
		if b.MinSize != minChunkSize<<b.Bin {
			t.Errorf("bin %d MinSize = %d", b.Bin, b.MinSize)
		}
	}
	if total != a.FreeBytes() {
		t.Errorf("bins cover %d free bytes, allocator reports %d", total, a.FreeBytes())
	}
	if chunks != 3 {
		t.Errorf("free chunks = %d, want 3 (two holes + tail)", chunks)
	}
	for _, al := range []*Allocation{l1, l2, l3} {
		a.Free(al)
	}
}
