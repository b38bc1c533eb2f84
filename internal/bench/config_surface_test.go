package bench_test

import (
	"reflect"
	"slices"
	"testing"

	"capuchin/internal/bench"
	"capuchin/internal/cluster"
	"capuchin/internal/core"
	"capuchin/internal/exec"
	"capuchin/internal/fleet"
	"capuchin/internal/serve"
)

// TestConfigSurface pins the exported fields of the engine's config
// types. A value that no caller sets to anything but its default is a
// constant, not a field; adding a knob must show up here as a deliberate
// change to this table. The run settings are pinned twice, as
// bench.RunConfig and as capuchin-serve's wire form of it.
func TestConfigSurface(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeFor[fleet.Config](), []string{
			"Seed", "Jobs", "Devices", "DeviceMemory", "Admission", "Manager", "Profiler",
			"Workloads", "MeanInterarrival", "JitterFrac", "Tracer",
		}},
		{reflect.TypeFor[exec.Config](), []string{
			"Device", "HostMemory", "Mode", "Policy", "Allocator", "CoupledSwap",
			"CollectiveRecompute", "RecordSpans", "Faults", "Comm", "CommAware", "Tracer",
		}},
		{reflect.TypeFor[bench.RunConfig](), []string{
			"Model", "Batch", "System", "Device", "Mode", "Iterations", "Allocator", "RecordSpans",
			"HostMemory", "ForceCoupledSwap", "Faults", "Schedule", "ScheduleSeed",
			"SchedulePeriod", "Devices", "CommOblivious",
		}},
		{reflect.TypeFor[serve.RunRequest](), []string{
			"Model", "Batch", "System", "Iterations", "Allocator", "Mode", "MemGiB", "HostMemGiB",
			"Faults", "Schedule", "ScheduleSeed", "SchedulePeriod", "Devices", "CommOblivious",
		}},
		{reflect.TypeFor[exec.DynamicConfig](), []string{"Base", "Build", "Schedule"}},
		{reflect.TypeFor[core.Options](), []string{"SwapOnly", "RecomputeOnly", "DisableFeedback"}},
		{reflect.TypeFor[cluster.Config](), []string{
			"Devices", "CommAware", "Build", "Exec", "Tracer",
		}},
	} {
		var got []string
		for f := range tc.typ.NumField() {
			if sf := tc.typ.Field(f); sf.IsExported() {
				got = append(got, sf.Name)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v fields:\n got  %v\n want %v", tc.typ, got, tc.want)
		}
	}
}
