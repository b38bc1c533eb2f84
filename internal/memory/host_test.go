package memory

import (
	"errors"
	"strings"
	"testing"
)

func TestHostArenaReserveRelease(t *testing.T) {
	h := NewHostArena(1 << 20)
	if err := h.ReserveIdx(3, "t1", 1000); err != nil {
		t.Fatal(err)
	}
	if !h.HoldsIdx(3) || h.HoldsIdx(2) || h.Used() != 1000 || h.Live() != 1 {
		t.Errorf("after reserve: holds 3=%v holds 2=%v used=%d live=%d", h.HoldsIdx(3), h.HoldsIdx(2), h.Used(), h.Live())
	}
	if err := h.ReleaseIdx(3, "t1"); err != nil {
		t.Fatal(err)
	}
	if h.HoldsIdx(3) || h.Used() != 0 || h.Live() != 0 {
		t.Error("release did not clear state")
	}
	if h.Peak() != 1000 {
		t.Errorf("Peak = %d, want 1000", h.Peak())
	}
}

func TestHostArenaDuplicateReserve(t *testing.T) {
	h := NewHostArena(1 << 20)
	if err := h.ReserveIdx(0, "t1", 10); err != nil {
		t.Fatal(err)
	}
	if err := h.ReserveIdx(0, "t1", 10); err == nil {
		t.Fatal("duplicate reservation allowed")
	}
	if h.Used() != 10 || h.Live() != 1 {
		t.Errorf("a refused duplicate changed the arena: used=%d live=%d", h.Used(), h.Live())
	}
}

func TestHostArenaUnknownRelease(t *testing.T) {
	h := NewHostArena(1 << 20)
	// Beyond the tables, and inside them but never reserved.
	if err := h.ReleaseIdx(7, "nope"); err == nil {
		t.Fatal("release of an index beyond the tables succeeded")
	}
	if err := h.ReserveIdx(9, "t9", 10); err != nil {
		t.Fatal(err)
	}
	if err := h.ReleaseIdx(7, "nope"); err == nil {
		t.Fatal("release of an unreserved index succeeded")
	}
	if err := h.ReleaseIdx(9, "t9"); err != nil {
		t.Fatal(err)
	}
	if err := h.ReleaseIdx(9, "t9"); err == nil {
		t.Fatal("second release of the same index succeeded")
	}
	if h.Used() != 0 {
		t.Errorf("Used = %d after the refused releases, want 0", h.Used())
	}
}

func TestHostArenaOOM(t *testing.T) {
	h := NewHostArena(1000)
	if err := h.ReserveIdx(0, "a", 600); err != nil {
		t.Fatal(err)
	}
	err := h.ReserveIdx(1, "b", 600)
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("expected ErrOOM, got %v", err)
	}
	var oe *OOMError
	if !errors.As(err, &oe) {
		t.Fatalf("host OOM is %T, want *OOMError", err)
	}
	if !oe.Host {
		t.Error("host OOM not marked Host")
	}
	if oe.LargestFree != 0 {
		t.Errorf("host OOM reports LargestFree=%d; the arena has no contiguity model", oe.LargestFree)
	}
	if msg := oe.Error(); strings.Contains(msg, "contiguous") || !strings.Contains(msg, "pinned host") {
		t.Errorf("host OOM message %q should name pinned host memory and omit the contiguous figure", msg)
	}
	if h.HoldsIdx(1) || h.Used() != 600 {
		t.Errorf("a refused reservation changed the arena: holds 1=%v used=%d", h.HoldsIdx(1), h.Used())
	}
	// Capacity check is exact: a 400-byte reservation still fits.
	if err := h.ReserveIdx(1, "b", 400); err != nil {
		t.Fatal(err)
	}
}

func TestHostArenaNegativeReserve(t *testing.T) {
	h := NewHostArena(1000)
	if err := h.ReserveIdx(0, "a", -1); err == nil {
		t.Fatal("negative reservation allowed")
	}
	if h.HoldsIdx(0) || h.Used() != 0 {
		t.Errorf("a refused negative reservation changed the arena: holds=%v used=%d", h.HoldsIdx(0), h.Used())
	}
}

func TestHostArenaCapacity(t *testing.T) {
	h := NewHostArena(42)
	if h.Capacity() != 42 {
		t.Errorf("Capacity = %d, want 42", h.Capacity())
	}
}
