package bench

import (
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"

	"capuchin/internal/core"
	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/tensor"
)

// TestResultHoldsNoLiveState pins that a Result is pure data: no field,
// however deeply nested, reaches a session, a policy, a graph or a
// tensor. A Runner memoizes every Result it computes, so a Result that
// pinned any of them would keep the whole simulation alive for the
// runner's lifetime. Interface-typed fields (Err) are opaque to a type
// walk; errors in this codebase carry values, never live state.
func TestResultHoldsNoLiveState(t *testing.T) {
	forbidden := map[reflect.Type]bool{
		reflect.TypeOf(exec.Session{}):  true,
		reflect.TypeOf(core.Capuchin{}): true,
		reflect.TypeOf(graph.Graph{}):   true,
		reflect.TypeOf(tensor.Tensor{}): true,
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
// values: each probe's session, graph and policy must be garbage once
// the probe returns, leaving a few KiB of IterStats per cell.
func TestSweepHeapBoundedByValues(t *testing.T) {
	before := liveHeapBytes()
	r := NewRunner(2)
	var cfgs []RunConfig
	for _, m := range []string{"resnet50", "mobilenetv2"} {
		for _, sys := range []System{SystemTF, SystemCapuchin} {
			cfgs = append(cfgs, RunConfig{Model: m, System: sys, Device: smallDev()})
		}
	}
	maxes := r.MaxBatchAll(cfgs)
	grown := int64(liveHeapBytes()) - int64(before)
	st := r.Stats()
	runtime.KeepAlive(r)
	for i, b := range maxes {
		if b == 0 {
			t.Errorf("%s/%s: nothing fits", cfgs[i].Model, cfgs[i].System)
		}
	}
	const perCell = 64 << 10
	if limit := int64(st.Cached) * perCell; grown > limit {
		t.Errorf("runner with %d cached cells keeps %.1f MiB live, want at most %.1f MiB (%d KiB per cell)",
			st.Cached, float64(grown)/(1<<20), float64(limit)/(1<<20), perCell>>10)
	}
	t.Logf("%d cached cells, live heap grew %.2f MiB", st.Cached, float64(grown)/(1<<20))
}
