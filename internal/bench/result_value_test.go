package bench

import (
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"

	"capuchin/internal/core"
	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/obs"
	"capuchin/internal/tensor"
)

// TestResultHoldsNoLiveState pins that a Result is pure data: no field,
// however deeply nested, reaches a session, a policy, a graph, a tensor
// or an event log. A Runner memoizes every Result it computes, so a
// Result that pinned any of them would keep the whole simulation (or its
// trace) alive for the runner's lifetime. Interface-typed fields (Err) are opaque to a type
// walk; errors in this codebase carry values, never live state.
func TestResultHoldsNoLiveState(t *testing.T) {
	forbidden := map[reflect.Type]bool{
		reflect.TypeOf(exec.Session{}):  true,
		reflect.TypeOf(core.Capuchin{}): true,
		reflect.TypeOf(graph.Graph{}):   true,
		reflect.TypeOf(tensor.Tensor{}): true,
		reflect.TypeOf(obs.Collector{}): true,
	}
	seen := make(map[reflect.Type]bool)
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if forbidden[typ] {
			t.Errorf("Result%s reaches %v", path, typ)
			return
		}
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Pointer:
			walk(typ.Elem(), path)
		case reflect.Slice, reflect.Array, reflect.Chan:
			walk(typ.Elem(), path+"[]")
		case reflect.Map:
			walk(typ.Key(), path+"{key}")
			walk(typ.Elem(), path+"{}")
		}
	}
	walk(reflect.TypeOf(Result{}), "")
}

// liveHeapBytes returns the heap marked live by a forced collection.
func liveHeapBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestSweepHeapBoundedByValues runs a two-model max-batch sweep and
// bounds the heap the runner keeps alive afterwards. Its cache holds one
// Result per probed cell, so the bound holds only while Results are
// values: each probe's session, graph, policy and event log must be
// garbage once the probe returns, leaving a few KiB of IterStats per
// cell. The sweep runs twice, the second time on a profiling runner,
// whose aggregate is the only thing its cells' logs leave behind.
func TestSweepHeapBoundedByValues(t *testing.T) {
	var cfgs []RunConfig
	for _, m := range []string{"resnet50", "mobilenetv2"} {
		for _, sys := range []System{SystemTF, SystemCapuchin} {
			cfgs = append(cfgs, RunConfig{Model: m, System: sys, Device: smallDev()})
		}
	}
	for _, profile := range []bool{false, true} {
		before := liveHeapBytes()
		r := NewRunner(2)
		if profile {
			r.EnableProfiling()
		}
		maxes := r.MaxBatchAll(cfgs)
		grown := int64(liveHeapBytes()) - int64(before)
		st := r.Stats()
		runtime.KeepAlive(r)
		for i, b := range maxes {
			if b == 0 {
				t.Errorf("profile=%v: %s/%s: nothing fits", profile, cfgs[i].Model, cfgs[i].System)
			}
		}
		const perCell = 64 << 10
		if limit := int64(st.Cached) * perCell; grown > limit {
			t.Errorf("profile=%v: runner with %d cached cells keeps %.1f MiB live, want at most %.1f MiB (%d KiB per cell)",
				profile, st.Cached, float64(grown)/(1<<20), float64(limit)/(1<<20), perCell>>10)
		}
		t.Logf("profile=%v: %d cached cells, live heap grew %.2f MiB", profile, st.Cached, float64(grown)/(1<<20))
	}
}
