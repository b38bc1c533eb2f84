package fault

// Queries reports how many samples the injector has drawn: the sum of
// its per-subject counters, which a disabled injector never allocates.
func (in *Injector) Queries() uint64 {
	var n uint64
	for _, c := range in.counts {
		n += c
	}
	return n
}
