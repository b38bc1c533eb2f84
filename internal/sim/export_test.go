package sim

// BusyTime reports the cumulative execution time of all operations run so
// far, excluding idle gaps.
func (s *Stream) BusyTime() Time { return s.busyTime }

// Ops reports the number of operations executed on the stream.
func (s *Stream) Ops() int { return s.ops }
