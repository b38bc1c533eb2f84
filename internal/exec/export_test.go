package exec

import "errors"

// IterationsSimulated reports how many iterations RunIteration has
// simulated in this process, for the external tests that show Run skips.
func IterationsSimulated() int64 { return iterationsSimulated.Load() }

// BoundaryRepeats encodes the session's state as Run does at an
// iteration boundary and reports whether it repeats the last boundary
// encoded, for the external tests of a policy's digest.
func (s *Session) BoundaryRepeats() (bool, error) {
	d, ok := s.digester()
	if !ok {
		return false, errors.New("exec: the session never skips")
	}
	return s.boundaryRepeats(d, false)
}
