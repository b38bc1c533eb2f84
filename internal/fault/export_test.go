package fault

// Queries reports how many decisions the injector has drawn.
func (in *Injector) Queries() uint64 { return in.queries }
