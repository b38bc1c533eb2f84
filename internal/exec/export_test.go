package exec

import (
	"errors"

	"capuchin/internal/memory"
)

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

// Host exposes the session's pinned-memory arena.
func (s *Session) Host() *memory.HostArena { return s.host }

// Residents returns the tensors currently holding device memory with
// their chunk sizes — a diagnostic for OOM analysis.
func (s *Session) Residents() map[string]int64 {
	out := make(map[string]int64)
	for _, n := range s.g.Nodes {
		for _, t := range n.Outputs {
			if t.Alloc != nil {
				out[t.ID] = t.Alloc.Size
			}
		}
	}
	return out
}
