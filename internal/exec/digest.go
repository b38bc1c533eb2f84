package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"capuchin/internal/graph"
	"capuchin/internal/ops"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// StateDigester is the optional interface of a policy whose behaviour in
// an iteration is decided by the executor state at the iteration's start
// and by state the policy encodes itself. Session.Run compares the state
// at consecutive iteration boundaries, and once one repeats it stops
// simulating and repeats the last iteration instead; only a digesting
// policy lets it.
type StateDigester interface {
	// AppendStateDigest appends to dst an encoding of every piece of the
	// policy's mutable state that its next BeginIteration, OnAccess, OnOOM
	// and EndIteration calls read, and returns the extended slice. Equal
	// encodings at two boundaries promise the same decisions in the
	// iterations that follow them. State that BeginIteration resets need
	// not be encoded. Anything read from the iteration number, or from a
	// parameter's AccessCount or LastAccess (which run on across
	// iterations), must be.
	AppendStateDigest(dst []byte) []byte
}

// iterationsSimulated counts the iterations RunIteration simulates,
// process-wide; the tests read it to show that Run skips. It is not a
// session field because they count across the sessions bench runs
// build and recycle internally, and it is only ever added to.
var iterationsSimulated atomic.Int64

// nullDigest is NullPolicy's StateDigester: NullPolicy has no state.
// NullPolicy does not carry the method itself, so a policy that embeds
// it for its defaults does not inherit the opt-in; it must digest its
// own state to let Run skip.
type nullDigest struct{}

func (nullDigest) AppendStateDigest(dst []byte) []byte { return dst }

// digester returns the policy's StateDigester when Run may skip
// repeated iterations: nothing observes the run (no tracer, metrics or
// recorded spans), no fault is injected, no collective traffic shares
// the link (its windows sit at absolute times), and the policy digests
// its state. A traced run therefore simulates every iteration, which
// keeps tracing outcome-neutral: its stats are the reference the skip
// must equal.
func (s *Session) digester() (StateDigester, bool) {
	if s.tr != nil || s.met != nil || s.cfg.RecordSpans || s.inj.Enabled() || s.cfg.Comm != nil {
		return nil, false
	}
	switch p := s.policy.(type) {
	case NullPolicy:
		return nullDigest{}, true
	case StateDigester:
		return p, true
	}
	return nil, false
}

// boundaryRepeats encodes the state at the iteration boundary into
// s.digest and reports whether it equals the previous boundary's (never
// at the first boundary of a run). It swaps the two buffers, so the
// encoding becomes the previous one for the next boundary.
func (s *Session) boundaryRepeats(d StateDigester, first bool) (bool, error) {
	cur, err := s.appendBoundary(s.digest[:0], d)
	if err != nil {
		return false, err
	}
	repeated := !first && bytes.Equal(cur, s.prevDigest)
	s.digest, s.prevDigest = s.prevDigest, cur
	return repeated, nil
}

// appendBoundary appends to dst the encoding of the state the next
// iteration reads. endIteration leaves most of that state the same at
// every boundary, so appendBoundary asserts it instead of encoding it:
//   - no pending free, in-flight swap-in, eviction-order entry or pin;
//   - no host reservation;
//   - the pool holds the parameters and nothing else. Parameters never
//     move, and the free chunks between them are coalesced, so this
//     also fixes the pool's layout;
//   - the copy streams stand at the compute stream's clock: the barrier
//     is a device-wide sync (endIteration).
//
// Non-persistent tensors need neither: endIteration resets every one,
// and no Env action applies to a freed tensor. What differs between
// boundaries is encoded: the eager dispatch stream's clock relative to
// the barrier (it runs free of the compute stream) and the policy's
// state. Parameter fingerprints and access counters are left out: they
// run on across iterations, and repeat recomputes them. So are the pool
// and host high-water marks, which only feed PeakBytes and HostPeak,
// unchanged by a repeated iteration.
func (s *Session) appendBoundary(dst []byte, d StateDigester) ([]byte, error) {
	now := s.now()
	var held string
	switch {
	case s.pendingFrees.Len() > 0, len(s.swapInList) > 0, s.lruLen > 0, len(s.pinStack) > 0:
		held = "a pending free, in-flight swap-in, eviction-order entry or pin"
	case s.host.Used() != 0:
		held = "a host reservation"
	case s.pool.Used() != s.paramBytes:
		held = "device memory beyond the parameters"
	case s.h2d.AvailableAt() != now, s.d2h.AvailableAt() != now:
		held = "a copy stream off the barrier"
	}
	if held != "" {
		return dst, invariant("iteration-boundary", "", fmt.Errorf("%s survived the iteration barrier", held))
	}
	if s.cpu != nil {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(s.cpu.AvailableAt()-now))
	}
	return d.AppendStateDigest(dst), nil
}

// repeat completes a run whose last iteration boundary repeated the one
// before: every iteration up to n repeats the last one in stats. Each
// copy is renumbered and takes its fingerprints from replayIteration.
// repeat leaves the session as simulating the iterations would have: the
// iteration counter, parameter fingerprints, parameter access counters,
// the gradient schedule and every stream clock move on by the repeated
// iterations.
func (s *Session) repeat(stats []IterStats, n int) []IterStats {
	last := stats[len(stats)-1]
	m := n - len(stats)
	for len(stats) < n {
		s.stats = last
		s.stats.Iter = s.iter
		s.replayIteration()
		stats = append(stats, s.stats)
		s.iter++
	}
	shift := sim.Time(m) * last.Duration
	for _, t := range s.tlist {
		switch {
		case !t.Persistent:
			t.Fingerprint = 0
		case s.refsInit[t.Idx] > 0:
			t.AccessCount += m * int(s.refsInit[t.Idx])
			t.LastAccess += shift
		}
	}
	for _, st := range [...]*sim.Stream{s.compute, s.h2d, s.d2h, s.cpu} {
		if st != nil {
			st.AdvanceTo(st.AvailableAt() + shift)
		}
	}
	for i := range s.gradEvents {
		s.gradEvents[i].At += shift
	}
	return stats
}

// replayIteration applies executeNode's content rule (fingerprint) to
// every node but the Variables, in node order, and records the loss and
// parameter fingerprints in s.stats: one iteration's values with no
// allocator and no streams. repeat and Reference share it.
func (s *Session) replayIteration() {
	for _, nd := range s.g.Nodes {
		if _, isVar := nd.Op.(ops.Variable); !isVar {
			s.fingerprint(nd)
		}
	}
	s.stats.ParamFingerprint = s.paramFingerprint()
}

// Reference returns the fingerprints of n training iterations of g from
// the executor's content rule alone (replayIteration), with no device,
// allocator or stream, so no graph is too large for it. Swapping and
// recomputation change when a tensor lives, never what it holds, so
// every session of g, under any policy, memory cap or fault plan, must
// report these fingerprints.
//
// Reference writes g's tensor fingerprints, so no session may be running
// g. It seeds the parameters as NewSession does and zeroes every
// activation's, so a session built on g afterwards reports the IterStats
// one built on a fresh graph does.
func Reference(g *graph.Graph, n int) []Fingerprints {
	g.EnsureIndexed()
	// fingerprint and paramFingerprint read nothing else.
	s := &Session{g: g, fpSeeds: make([]uint64, len(g.Nodes))}
	for _, nd := range g.Nodes {
		s.fpSeeds[nd.Pos] = tensor.HashSeed(nd.ID)
	}
	for _, t := range g.TensorList() {
		if t.Persistent {
			t.Fingerprint = tensor.HashSeed(t.ID)
		}
	}
	refs := make([]Fingerprints, n)
	for i := range refs {
		s.replayIteration()
		refs[i] = s.stats.Fingerprints()
	}
	for _, t := range g.TensorList() {
		if !t.Persistent {
			t.Fingerprint = 0
		}
	}
	return refs
}
