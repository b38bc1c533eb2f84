// Package sim provides the virtual-time substrate for the Capuchin
// simulator: a nanosecond-resolution clock, FIFO device streams that model
// CUDA streams, and Heap, the one time-ordered queue, which holds
// asynchronous completions such as in-flight swap-outs and the fleet
// scheduler's events.
//
// The simulator is analytic rather than callback-driven: an executor issues
// work onto streams in program order and each stream tracks the virtual time
// at which it becomes available again. Cross-stream dependencies are
// expressed by passing completion times as the earliest-start argument of
// Stream.Run, which mirrors how CUDA events serialize work between streams.
package sim

import (
	"fmt"
	"math"
)

// Time is virtual time in nanoseconds since the start of the simulation.
//
// It is a defined type (not an alias) so that durations and wall-clock
// timestamps cannot be mixed up with virtual time by accident.
type Time int64

// Common durations expressed in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit, for logs and traces.
func (t Time) String() string {
	switch {
	case t == math.MinInt64:
		// -t overflows back to t; seconds is the only unit that fits.
		return fmt.Sprintf("%.4fs", t.Seconds())
	case t < 0:
		return fmt.Sprintf("-%s", (-t).String())
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.4fs", t.Seconds())
	}
}

// FromSeconds converts a floating-point duration in seconds to virtual time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// MaxTime returns the later of two times.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MinTime returns the earlier of two times.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// maxBackoffShift caps exponential backoff doubling so pathological retry
// budgets cannot overflow virtual time.
const maxBackoffShift = 16

// MaxBackoff is the ceiling on any single backoff delay (one virtual
// minute). Capping the shift alone is not enough: a large base shifted by
// even a modest attempt count can wrap int64 and produce a negative delay,
// which a stream would reject as a negative duration.
const MaxBackoff = 60 * Second

// Backoff reports the exponential retry delay for the given zero-based
// attempt: base doubled per prior attempt (base, 2*base, 4*base, ...),
// with the doubling capped at 2^16 and the delay clamped to MaxBackoff.
// It is the virtual-time analogue of a driver's retry backoff; the
// executor uses it between re-issued PCIe transfers.
func Backoff(base Time, attempt int) Time {
	if base <= 0 || attempt < 0 {
		return 0
	}
	if base >= MaxBackoff {
		return MaxBackoff
	}
	if attempt > maxBackoffShift {
		attempt = maxBackoffShift
	}
	// base << attempt overflows iff base > MaxBackoff >> attempt; the
	// comparison itself cannot overflow because base < MaxBackoff here.
	if base > MaxBackoff>>attempt {
		return MaxBackoff
	}
	return base << attempt
}

// Stream models a CUDA stream: a FIFO queue of operations that execute
// back-to-back in virtual time. A stream remembers when it next becomes
// available; Run places an operation at the later of that time and the
// caller-supplied earliest start (the join of its dependencies).
type Stream struct {
	name        string
	availableAt Time
}

// NewStream returns an idle stream available at time zero.
func NewStream(name string) *Stream {
	return &Stream{name: name}
}

// Name reports the stream's name.
func (s *Stream) Name() string { return s.name }

// AvailableAt reports the virtual time at which the stream next becomes idle.
func (s *Stream) AvailableAt() Time { return s.availableAt }

// Run executes an operation of the given duration. The operation starts at
// the later of the stream's availability and earliest (the completion time
// of the operation's dependencies) and the stream becomes available again at
// its end. It returns the operation's start and end times.
func (s *Stream) Run(earliest Time, duration Time) (start, end Time) {
	if duration < 0 {
		panic(fmt.Sprintf("sim: negative duration %v on stream %s", duration, s.name))
	}
	start = MaxTime(s.availableAt, earliest)
	end = start + duration
	s.availableAt = end
	return start, end
}

// AdvanceTo stalls the stream until t if t is in its future. It models a
// synchronization point (cudaStreamWaitEvent / blocking OOM wait).
func (s *Stream) AdvanceTo(t Time) {
	if t > s.availableAt {
		s.availableAt = t
	}
}

// Reset returns the stream to its initial idle state.
// Used between benchmark configurations.
func (s *Stream) Reset() { s.availableAt = 0 }
