package sim

// BusyTime reports the cumulative execution time of the recorded spans,
// excluding idle gaps: every operation's, when the stream recorded
// since its last Reset.
func (s *Stream) BusyTime() Time {
	var busy Time
	for _, sp := range s.spans {
		busy += sp.Duration()
	}
	return busy
}

// Ops reports the number of recorded operations.
func (s *Stream) Ops() int { return len(s.spans) }
