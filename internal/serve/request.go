package serve

import (
	"encoding/json"
	"fmt"
	"io"

	"capuchin/internal/bench"
	"capuchin/internal/exec"
	"capuchin/internal/fault"
	"capuchin/internal/hw"
)

// RunRequest is the wire form of a run submission: the semantic knobs of
// bench.RunConfig, with device memory in GiB and the fault plan in its
// flag syntax. Zero-valued fields take the defaults of bench.Run: a P100
// device, graph mode, the capuchin system, 3 iterations and BFC. (The
// CLIs pick some of their own: capuchin-train runs 8 iterations, and
// capuchin-trace tf-ori on 64 GiB.)
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

// ToRunConfig maps the request onto a bench.RunConfig and validates it
// with bench.RunConfig.Validate, after parsing the fields that have a
// wire syntax: the mode, the fault plan and the memory sizes
// (hw.GiBToBytes). An invalid request therefore never reaches admission.
func (rr RunRequest) ToRunConfig() (bench.RunConfig, error) {
	mode, err := exec.ParseMode(rr.Mode)
	if err != nil {
		return bench.RunConfig{}, err
	}
	var plan fault.Plan
	if rr.Faults != "" {
		if plan, err = fault.ParsePlan(rr.Faults); err != nil {
			return bench.RunConfig{}, err
		}
	}
	devBytes, err := hw.GiBToBytes(rr.MemGiB)
	if err != nil {
		return bench.RunConfig{}, fmt.Errorf("memGiB: %w", err)
	}
	hostBytes, err := hw.GiBToBytes(rr.HostMemGiB)
	if err != nil {
		return bench.RunConfig{}, fmt.Errorf("hostMemGiB: %w", err)
	}
	dev := hw.P100()
	if devBytes > 0 {
		dev = dev.WithMemory(devBytes)
	}
	system := bench.System(rr.System)
	if system == "" {
		system = bench.SystemCapuchin
	}
	cfg := bench.RunConfig{
		Model:          rr.Model,
		Batch:          rr.Batch,
		System:         system,
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
	return cfg, cfg.Validate()
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
