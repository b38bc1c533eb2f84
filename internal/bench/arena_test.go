package bench

import (
	"bytes"
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/obs"
)

func TestGoldenArenaQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick arena takes a few seconds")
	}
	checkGolden(t, "arena_quick", Arena(goldenOpts()))
}

// TestArenaJobsByteIdentical is the determinism satellite: the rendered
// arena table must not depend on the worker-pool width. Fresh runners on
// each side, so nothing is served from a shared cache.
func TestArenaJobsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick arena twice")
	}
	render := func(jobs int) []byte {
		o := goldenOpts()
		o.Jobs = jobs
		var buf bytes.Buffer
		if err := Arena(o).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("arena table differs between -jobs 1 and -jobs 8:\n--- jobs=1\n%s--- jobs=8\n%s", serial, parallel)
	}
}

// TestArenaCoversRegisteredRivals pins the tournament roster to the
// registry: every arena-flagged policy appears, the baseline leads, and
// the roster meets the paper-matrix floor (baseline, vDNN, checkpointing,
// SuperNeurons, Capuchin, h-DTR, chunk).
func TestArenaCoversRegisteredRivals(t *testing.T) {
	names := exec.ArenaPolicyNames()
	if len(names) < 5 {
		t.Fatalf("arena roster too small: %v", names)
	}
	want := []string{"tf-ori", "capuchin", "vdnn", "superneurons", "dtr", "chunk", "openai-m", "openai-s"}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("arena roster missing %q (have %v)", w, names)
		}
	}
}

// TestSystemNamesRoundTripCacheKeys is the registry-lookup satellite:
// every registered system name survives RunConfig cache-key
// canonicalization unchanged, keys stay distinct across systems, and a
// repeated submission is served from the runner cache.
func TestSystemNamesRoundTripCacheKeys(t *testing.T) {
	names := SystemNames()
	if len(names) < 10 {
		t.Fatalf("only %d systems registered: %v", len(names), names)
	}
	seen := make(map[RunConfig]string, len(names))
	for _, n := range names {
		cfg := RunConfig{Model: "resnet50", Batch: 8, System: System(n), Device: smallDev()}
		key := cacheKey(cfg)
		if key.System != cfg.System {
			t.Errorf("%s: cache key rewrote System to %q", n, key.System)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("systems %s and %s collapse to one cache key", prev, n)
		}
		seen[key] = n
	}
	// A repeat submission of each system must hit, not re-simulate.
	r := NewRunner(2)
	r.runFn = func(cfg RunConfig, _ obs.Tracer, _ *Templates) Result { return Result{Config: cfg, OK: true} }
	for _, n := range names {
		cfg := RunConfig{Model: "resnet50", Batch: 8, System: System(n), Device: smallDev()}
		r.Run(cfg)
		r.Run(cfg)
	}
	st := r.Stats()
	if st.Misses != int64(len(names)) || st.Hits != int64(len(names)) {
		t.Errorf("cache stats = %+v, want %d misses and %d hits", st, len(names), len(names))
	}
}
