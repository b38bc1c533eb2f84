package fleet

// Jobs exposes the job set for invariant checks.
func (f *Fleet) Jobs() []*Job { return f.jobs }
