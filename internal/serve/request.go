package serve

import (
	"encoding/json"
	"fmt"
	"io"

	"capuchin/internal/bench"
	"capuchin/internal/exec"
	"capuchin/internal/fault"
	"capuchin/internal/hw"
	"capuchin/internal/models"
)

// RunRequest is the wire form of a run submission: the semantic knobs of
// bench.RunConfig, with device memory in GiB and the fault plan in its
// flag syntax. Zero-valued fields take the same defaults the CLI tools
// use (P100 device, graph mode, capuchin system, 3 iterations, BFC).
type RunRequest struct {
	// Model names a registered workload (resnet50, bert, lstm, ...).
	Model string `json:"model"`
	// Batch is the per-iteration batch size; required, 1..4096.
	Batch int64 `json:"batch"`
	// System selects the memory-management policy; "" means capuchin.
	System string `json:"system,omitempty"`
	// Iterations to run, at most 10,000; 0 means 3.
	Iterations int `json:"iterations,omitempty"`
	// Allocator selects "bfc" (default) or "firstfit".
	Allocator string `json:"allocator,omitempty"`
	// Mode is "graph" (default) or "eager".
	Mode string `json:"mode,omitempty"`
	// MemGiB overrides the P100's 16 GiB device memory; at most 4096.
	MemGiB float64 `json:"memGiB,omitempty"`
	// HostMemGiB overrides the 256 GiB pinned-host default; at most 4096.
	HostMemGiB float64 `json:"hostMemGiB,omitempty"`
	// Faults is a fault-injection plan in fault.ParsePlan syntax.
	Faults string `json:"faults,omitempty"`
	// Schedule, ScheduleSeed and SchedulePeriod select a dynamic shape
	// schedule (see bench.RunConfig).
	Schedule       string `json:"schedule,omitempty"`
	ScheduleSeed   uint64 `json:"scheduleSeed,omitempty"`
	SchedulePeriod int    `json:"schedulePeriod,omitempty"`
	// Devices > 1 (at most 64) runs the data-parallel cluster path;
	// CommOblivious disables comm-aware swap scheduling there.
	Devices       int  `json:"devices,omitempty"`
	CommOblivious bool `json:"commOblivious,omitempty"`
}

// Upper caps on a request's size knobs. A run's statistics are allocated
// up front per iteration, so an uncapped iteration count can ask for more
// memory than the host has, which is a fatal error, not a panic the
// worker can recover.
const (
	// maxIterations bounds Iterations.
	maxIterations = 10_000
	// maxDevices bounds Devices; the Scaling experiment uses at most 8.
	maxDevices = 64
	// maxMemGiB bounds MemGiB and HostMemGiB. A size beyond the int64
	// byte range would convert to a negative capacity.
	maxMemGiB = 4096
)

// memBytes converts a request's memory size in GiB to bytes. Zero means
// unset; any other size must come to at least one byte and at most
// maxMemGiB.
func memBytes(field string, gib float64) (int64, error) {
	if gib == 0 {
		return 0, nil
	}
	bytes := gib * float64(hw.GiB)
	if bytes < 1 || gib > maxMemGiB {
		return 0, fmt.Errorf("serve: %s must be 0 (unset) or between 1 byte and %d GiB, got %g", field, maxMemGiB, gib)
	}
	return int64(bytes), nil
}

// ToRunConfig validates the request and maps it onto a bench.RunConfig.
// Validation covers what can be checked without running: the model and
// system must be registered, the mode known, the batch positive, the
// iteration count, device count and schedule period non-negative, the
// batch, iteration count and device count within their caps, each memory
// size unset or from one byte to maxMemGiB, the fault plan parseable,
// and the config product one the engine runs — a Schedule with Devices > 1 is rejected with an
// error wrapping bench.ErrDynamicCluster. An invalid request therefore
// never reaches admission.
func (rr RunRequest) ToRunConfig() (bench.RunConfig, error) {
	var cfg bench.RunConfig
	if rr.Model == "" {
		return cfg, fmt.Errorf("serve: model is required")
	}
	if _, err := models.Get(rr.Model); err != nil {
		return cfg, fmt.Errorf("serve: %w", err)
	}
	switch {
	case rr.Batch < 1:
		return cfg, fmt.Errorf("serve: batch must be >= 1, got %d", rr.Batch)
	case rr.Batch > bench.MaxBatchCeiling:
		return cfg, fmt.Errorf("serve: batch must be <= %d, got %d", bench.MaxBatchCeiling, rr.Batch)
	case rr.Iterations < 0:
		return cfg, fmt.Errorf("serve: iterations must be >= 0, got %d", rr.Iterations)
	case rr.Iterations > maxIterations:
		return cfg, fmt.Errorf("serve: iterations must be <= %d, got %d", maxIterations, rr.Iterations)
	case rr.Devices < 0:
		return cfg, fmt.Errorf("serve: devices must be >= 0, got %d", rr.Devices)
	case rr.Devices > maxDevices:
		return cfg, fmt.Errorf("serve: devices must be <= %d, got %d", maxDevices, rr.Devices)
	case rr.SchedulePeriod < 0:
		return cfg, fmt.Errorf("serve: schedulePeriod must be >= 0, got %d", rr.SchedulePeriod)
	case rr.Schedule != "" && rr.Devices > 1:
		return cfg, fmt.Errorf("serve: %w", bench.ErrDynamicCluster)
	}
	devBytes, err := memBytes("memGiB", rr.MemGiB)
	if err != nil {
		return cfg, err
	}
	hostBytes, err := memBytes("hostMemGiB", rr.HostMemGiB)
	if err != nil {
		return cfg, err
	}
	system := rr.System
	if system == "" {
		system = string(bench.SystemCapuchin)
	}
	if _, ok := exec.LookupPolicy(system); !ok {
		return cfg, fmt.Errorf("serve: unknown system %q (known: %v)", system, exec.PolicyNames())
	}
	var mode exec.Mode
	switch rr.Mode {
	case "", "graph":
		mode = exec.GraphMode
	case "eager":
		mode = exec.EagerMode
	default:
		return cfg, fmt.Errorf("serve: unknown mode %q (want graph or eager)", rr.Mode)
	}
	var plan fault.Plan
	if rr.Faults != "" {
		if plan, err = fault.ParsePlan(rr.Faults); err != nil {
			return cfg, fmt.Errorf("serve: %w", err)
		}
	}
	dev := hw.P100()
	if devBytes > 0 {
		dev = dev.WithMemory(devBytes)
	}
	cfg = bench.RunConfig{
		Model:          rr.Model,
		Batch:          rr.Batch,
		System:         bench.System(system),
		Device:         dev,
		Mode:           mode,
		Iterations:     rr.Iterations,
		Allocator:      rr.Allocator,
		Faults:         plan,
		Schedule:       rr.Schedule,
		ScheduleSeed:   rr.ScheduleSeed,
		SchedulePeriod: rr.SchedulePeriod,
		Devices:        rr.Devices,
		CommOblivious:  rr.CommOblivious,
		HostMemory:     hostBytes,
	}
	return cfg, nil
}

// decodeRunRequest reads one submission body — strict JSON, where an
// unknown field is an error — and validates it into the canonical config
// the store files the run under (bench.CanonicalConfig), from which the
// run ID derives. Every error is the client's: the handler answers 400.
func decodeRunRequest(body io.Reader) (bench.RunConfig, error) {
	var rr RunRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rr); err != nil {
		return bench.RunConfig{}, fmt.Errorf("serve: bad request body: %w", err)
	}
	cfg, err := rr.ToRunConfig()
	if err != nil {
		return bench.RunConfig{}, err
	}
	return bench.CanonicalConfig(cfg), nil
}
