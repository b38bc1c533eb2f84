package exec

// IterationsSimulated reports how many iterations RunIteration has
// simulated in this process, for the external tests that show Run skips.
func IterationsSimulated() int64 { return iterationsSimulated.Load() }
