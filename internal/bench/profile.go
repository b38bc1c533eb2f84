package bench

import (
	"capuchin/internal/obs"
)

// ProfileReport bundles the observability artifacts of one profiled run:
// the raw event/decision stream, the reconstructed memory profile, and the
// run's metrics registry. It is attached to Result when RunConfig.Profile
// is set, including on failed runs — an OOM cell's timeline is exactly
// what the profile is for.
type ProfileReport struct {
	// Events holds the full trace: spans, instants and the policy
	// decision audit log.
	Events *obs.Collector
	// Mem is the memory profile reconstructed from the event stream.
	Mem *obs.MemProfile
	// Metrics is the run's registry (kernel/transfer/stall histograms,
	// fault and swap counters), folded from Events by obs.BuildMetrics.
	Metrics *obs.Metrics
}

// newProfileReport assembles the report after a run completes.
func newProfileReport(col *obs.Collector) *ProfileReport {
	events := col.Events()
	return &ProfileReport{
		Events:  col,
		Mem:     obs.BuildMemProfile(events),
		Metrics: obs.BuildMetrics(events, col.Decisions()),
	}
}
