package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{Microsecond, "1.00us"},
		{1500 * Nanosecond, "1.50us"},
		{Millisecond, "1.000ms"},
		{474 * Microsecond, "474.00us"},
		{Second, "1.0000s"},
		{-Microsecond, "-1.00us"},
		{math.MinInt64, "-9223372036.8548s"}, // negation overflows
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
	if got := (3 * Millisecond).Milliseconds(); got != 3.0 {
		t.Errorf("Milliseconds() = %v, want 3", got)
	}
	if got := (5 * Microsecond).Microseconds(); got != 5.0 {
		t.Errorf("Microseconds() = %v, want 5", got)
	}
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v, want 1.5s", got)
	}
}

func TestMaxMinTime(t *testing.T) {
	if MaxTime(1, 2) != 2 || MaxTime(2, 1) != 2 {
		t.Error("MaxTime wrong")
	}
	if MinTime(1, 2) != 1 || MinTime(2, 1) != 1 {
		t.Error("MinTime wrong")
	}
}

func TestStreamSequencing(t *testing.T) {
	s := NewStream("compute")
	var busy Time // the ops' durations, from Run's returned times
	start, end := s.Run(0, 100)
	busy += end - start
	if start != 0 || end != 100 {
		t.Fatalf("first op: got [%d,%d], want [0,100]", start, end)
	}
	// Second op with an earlier dependency still queues behind the first.
	start, end = s.Run(50, 30)
	busy += end - start
	if start != 100 || end != 130 {
		t.Fatalf("second op: got [%d,%d], want [100,130]", start, end)
	}
	// Third op with a future dependency waits for it.
	start, end = s.Run(500, 10)
	busy += end - start
	if start != 500 || end != 510 {
		t.Fatalf("third op: got [%d,%d], want [500,510]", start, end)
	}
	if s.AvailableAt() != 510 {
		t.Errorf("AvailableAt = %d, want 510", s.AvailableAt())
	}
	if busy != 140 {
		t.Errorf("busy time = %d, want 140", busy)
	}
}

func TestStreamAdvanceTo(t *testing.T) {
	s := NewStream("h2d")
	start, end := s.Run(0, 10)
	s.AdvanceTo(5) // in the past: no effect
	if s.AvailableAt() != 10 {
		t.Errorf("AdvanceTo past moved the stream: %d", s.AvailableAt())
	}
	s.AdvanceTo(100)
	if s.AvailableAt() != 100 {
		t.Errorf("AdvanceTo future: got %d, want 100", s.AvailableAt())
	}
	// Stall does not count as busy time: the next op starts after it.
	if end-start != 10 {
		t.Errorf("busy time after stall = %d, want 10", end-start)
	}
	if start, _ := s.Run(0, 1); start != 100 {
		t.Errorf("op after stall starts at %d, want 100", start)
	}
}

func TestStreamReset(t *testing.T) {
	s := NewStream("compute")
	s.Run(0, 10)
	s.Reset()
	if s.AvailableAt() != 0 {
		t.Error("Reset did not clear state")
	}
	if start, end := s.Run(0, 5); start != 0 || end != 5 {
		t.Errorf("op after Reset: got [%d,%d], want [0,5]", start, end)
	}
}

func TestStreamNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative duration")
		}
	}()
	NewStream("x").Run(0, -1)
}

func TestPendingSetOrdering(t *testing.T) {
	var h Heap[string]
	h.Push(30, 0, "c")
	h.Push(10, 0, "a")
	h.Push(20, 0, "b")
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	at, v, ok := h.Peek()
	if !ok || at != 10 || v != "a" {
		t.Fatalf("Peek = %v, %q, %v", at, v, ok)
	}
	want := []string{"a", "b", "c"}
	for i, w := range want {
		_, v, ok := h.Pop()
		if !ok || v != w {
			t.Fatalf("pop %d: got %q, %v, want %s", i, v, ok, w)
		}
	}
	if _, _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty heap returned ok")
	}
	if _, _, ok := h.Peek(); ok {
		t.Fatal("Peek on empty heap returned ok")
	}
}

// popDue is the executor's pending-free drain: pop entries while the
// earliest is due by now.
func popDue(h *Heap[string], now Time) []Time {
	var due []Time
	for {
		at, _, ok := h.Peek()
		if !ok || at > now {
			return due
		}
		h.Pop()
		due = append(due, at)
	}
}

func TestPendingSetPopDue(t *testing.T) {
	var h Heap[string]
	for _, at := range []Time{50, 10, 30, 70} {
		h.Push(at, 0, "")
	}
	if due := popDue(&h, 30); len(due) != 2 || due[0] != 10 || due[1] != 30 {
		t.Fatalf("drain to 30 = %v", due)
	}
	if h.Len() != 2 {
		t.Fatalf("remaining = %d, want 2", h.Len())
	}
	if due := popDue(&h, 0); due != nil {
		t.Fatalf("drain to 0 = %v, want nothing", due)
	}
}

// Property: popping everything from a Heap yields a non-decreasing
// time sequence regardless of insertion order.
func TestPendingSetSortedProperty(t *testing.T) {
	f := func(times []int64) bool {
		var h Heap[string]
		for _, at := range times {
			h.Push(Time(at), 0, "")
		}
		prev := Time(math.MinInt64)
		for {
			at, _, ok := h.Pop()
			if !ok {
				break
			}
			if at < prev {
				return false
			}
			prev = at
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a stream never starts an op before its dependency nor before the
// previous op ends, and busy time equals the sum of durations.
func TestStreamInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		s := NewStream("p")
		var prevEnd Time
		var busy, ran Time // the durations asked for, and those Run's times span
		for i := 0; i < 50; i++ {
			dep := Time(rng.Int63n(1000))
			d := Time(rng.Int63n(100))
			start, end := s.Run(dep, d)
			if start < dep {
				t.Fatalf("op started %d before dependency %d", start, dep)
			}
			if start < prevEnd {
				t.Fatalf("op started %d before previous end %d", start, prevEnd)
			}
			if end != start+d {
				t.Fatalf("end %d != start %d + duration %d", end, start, d)
			}
			prevEnd = end
			busy += d
			ran += end - start
		}
		if ran != busy {
			t.Fatalf("busy time %d != sum of durations %d", ran, busy)
		}
	}
}

func TestBackoff(t *testing.T) {
	base := 25 * Microsecond
	for attempt, want := range []Time{base, 2 * base, 4 * base, 8 * base} {
		if got := Backoff(base, attempt); got != want {
			t.Errorf("Backoff(%v, %d) = %v, want %v", base, attempt, got, want)
		}
	}
	if Backoff(0, 3) != 0 || Backoff(-Second, 3) != 0 || Backoff(base, -1) != 0 {
		t.Error("Backoff must be zero for non-positive base or negative attempt")
	}
	// Doubling is capped so huge attempt counts cannot overflow.
	if got, want := Backoff(base, 1000), Backoff(base, maxBackoffShift); got != want {
		t.Errorf("Backoff cap: got %v, want %v", got, want)
	}
}

// TestBackoffClamp is the regression test for the int64 overflow: before
// the MaxBackoff clamp, a large base shifted by the capped attempt count
// wrapped negative (e.g. Time(1)<<50 at attempt 16), and a negative delay
// would panic the stream as a negative duration. Every delay must be
// non-negative, bounded by MaxBackoff and non-decreasing in the attempt
// count, for bases spanning the whole representable range and attempts up
// to 64.
func TestBackoffClamp(t *testing.T) {
	bases := []Time{
		Nanosecond, Microsecond, 25 * Microsecond, Millisecond, Second,
		Time(1) << 40, Time(1) << 50, MaxBackoff - 1, MaxBackoff,
		MaxBackoff + 1, Time(1) << 62,
	}
	for _, base := range bases {
		prev := Time(0)
		for attempt := 0; attempt <= 64; attempt++ {
			got := Backoff(base, attempt)
			if got < 0 {
				t.Fatalf("Backoff(%d, %d) = %d: overflowed negative", int64(base), attempt, int64(got))
			}
			if got > MaxBackoff {
				t.Fatalf("Backoff(%d, %d) = %v exceeds MaxBackoff %v", int64(base), attempt, got, MaxBackoff)
			}
			if got < prev {
				t.Fatalf("Backoff(%d, %d) = %v decreased from attempt %d's %v",
					int64(base), attempt, got, attempt-1, prev)
			}
			prev = got
		}
	}
	// Small bases below the clamp keep pure exponential growth.
	if got, want := Backoff(25*Microsecond, 5), 32*25*Microsecond; got != want {
		t.Fatalf("clamp must not disturb in-range backoff: got %v, want %v", got, want)
	}
	// The documented overflow case: Time(1)<<50 doubled 16 times wraps
	// int64 without the clamp; with it, the delay saturates at MaxBackoff.
	if got := Backoff(Time(1)<<50, 16); got != MaxBackoff {
		t.Fatalf("Backoff(1<<50, 16) = %v, want MaxBackoff %v", got, MaxBackoff)
	}
}
