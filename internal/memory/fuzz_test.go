package memory

import (
	"encoding/binary"
	"sort"
	"testing"
)

// FuzzBFC drives the allocator with an operation tape decoded from fuzz
// input: each pair of bytes encodes either an allocation (size derived
// from the value) or a free (index into the live set). The allocator's
// own invariant checker validates structure after every step.
func FuzzBFC(f *testing.F) {
	f.Add([]byte{0x01, 0x10, 0x80, 0x00, 0xff, 0x03})
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05})
	f.Add(binary.LittleEndian.AppendUint64(nil, 0xdeadbeefcafef00d))
	f.Fuzz(func(t *testing.T, tape []byte) {
		a := NewBFC(1 << 18)
		var live []*Allocation
		for i := 0; i+1 < len(tape); i += 2 {
			op, arg := tape[i], tape[i+1]
			if op%3 != 0 || len(live) == 0 {
				size := int64(arg) << (op % 8) // up to 32 KiB
				al, err := a.Alloc(size)
				if err != nil {
					continue
				}
				live = append(live, al)
			} else {
				j := int(arg) % len(live)
				a.Free(live[j])
				live = append(live[:j], live[j+1:]...)
			}
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("invariants violated mid-run: %v", err)
		}
		for _, al := range live {
			a.Free(al)
		}
		if a.Used() != 0 {
			t.Fatalf("leak: %d bytes used after freeing all", a.Used())
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if a.LargestFree() != a.Capacity() {
			t.Fatalf("coalescing failed: largest %d, capacity %d", a.LargestFree(), a.Capacity())
		}
	})
}

// FuzzBFCAllocator cross-checks the allocator against an external shadow
// model. Where FuzzBFC trusts CheckInvariants, this target re-derives the
// invariants independently: live allocations must never overlap, offsets
// must stay inside the region, and the allocator's accounting must equal
// the shadow's sums at every step. The tape's third operation mimics the
// executor's eviction path — freeing a victim chosen by size rather than
// age — so free-order patterns the LRU-ish unit tests never produce get
// exercised too.
func FuzzBFCAllocator(f *testing.F) {
	f.Add([]byte{0x01, 0x20, 0x04, 0x01, 0x02, 0x00, 0x05, 0x03})
	f.Add([]byte{0x00, 0xff, 0x00, 0xff, 0x02, 0x00, 0x00, 0xff, 0x05, 0x00})
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x0123456789abcdef))
	f.Add([]byte{0x03, 0x08, 0x03, 0x08, 0x03, 0x08, 0x05, 0x00, 0x04, 0x01})
	f.Fuzz(func(t *testing.T, tape []byte) {
		const capacity = 1 << 18
		a := NewBFC(capacity)
		var live []*Allocation
		check := func(op string) {
			// No-overlap and in-bounds: sort the shadow set by offset and
			// require strictly increasing, non-intersecting chunks.
			byOff := append([]*Allocation(nil), live...)
			sort.Slice(byOff, func(i, j int) bool { return byOff[i].Offset < byOff[j].Offset })
			var used int64
			for i, al := range byOff {
				if al.Offset < 0 || al.Offset+al.Size > capacity {
					t.Fatalf("%s: allocation [%d, %d) outside region", op, al.Offset, al.Offset+al.Size)
				}
				if al.Size < al.Requested {
					t.Fatalf("%s: chunk size %d below requested %d", op, al.Size, al.Requested)
				}
				if i > 0 {
					prev := byOff[i-1]
					if prev.Offset+prev.Size > al.Offset {
						t.Fatalf("%s: overlap: [%d, %d) and [%d, %d)",
							op, prev.Offset, prev.Offset+prev.Size, al.Offset, al.Offset+al.Size)
					}
				}
				used += al.Size
			}
			if a.Used() != used {
				t.Fatalf("%s: Used() = %d, shadow sum = %d", op, a.Used(), used)
			}
			if a.FreeBytes() != capacity-used {
				t.Fatalf("%s: FreeBytes() = %d, want %d", op, a.FreeBytes(), capacity-used)
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", op, err)
			}
		}
		for i := 0; i+1 < len(tape); i += 2 {
			op, arg := tape[i]%6, tape[i+1]
			switch {
			case op <= 2 || len(live) == 0: // alloc (sizes 0 .. ~32 KiB)
				size := int64(arg) << (tape[i] % 8)
				al, err := a.Alloc(size)
				if err != nil {
					check("failed alloc")
					continue
				}
				live = append(live, al)
				check("alloc")
			case op == 3: // free by position
				j := int(arg) % len(live)
				MustFree(a, live[j])
				live = append(live[:j], live[j+1:]...)
				check("free")
			case op == 4: // evict the largest live chunk (capacity pressure)
				j := 0
				for k, al := range live {
					if al.Size > live[j].Size {
						j = k
					}
				}
				MustFree(a, live[j])
				live = append(live[:j], live[j+1:]...)
				check("evict-largest")
			default: // evict the smallest live chunk (fragmentation pressure)
				j := 0
				for k, al := range live {
					if al.Size < live[j].Size {
						j = k
					}
				}
				MustFree(a, live[j])
				live = append(live[:j], live[j+1:]...)
				check("evict-smallest")
			}
		}
		for _, al := range live {
			MustFree(a, al)
		}
		live = nil
		check("drain")
		if a.LargestFree() != capacity {
			t.Fatalf("coalescing failed after drain: largest %d, capacity %d", a.LargestFree(), capacity)
		}
	})
}
