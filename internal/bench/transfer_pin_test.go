package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"capuchin/internal/fault"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
)

// transferPinPlan aborts one DMA attempt in five with a two-retry budget:
// enough to push every transfer kind through its abort path while most
// transfers still land.
const transferPinPlan = "seed=7,transfer=0.2,retries=2"

// TestTransferPin pins every PCIe transfer kind's rendered output: the
// full event and decision stream (as the SHA-256 of its JSONL, which runs
// to megabytes) and the Prometheus exposition, for a faulted Capuchin run
// on one device and on two data-parallel replicas. The two-replica run
// adds all-reduce windows, so comm-aware deferral shows up too. The test
// also checks that each case it exists to pin still occurs, so a change
// to the scenario cannot silently lose coverage. On a mismatch the actual
// pin and JSONL are written to temp files for diffing; -update rewrites
// the goldens.
func TestTransferPin(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two faulted, profiled ResNet-50 cells")
	}
	plan, err := fault.ParsePlan(transferPinPlan)
	if err != nil {
		t.Fatal(err)
	}
	for _, devices := range []int{1, 2} {
		t.Run(fmt.Sprintf("devices=%d", devices), func(t *testing.T) {
			res, col := traced(RunConfig{
				Model: "resnet50", Batch: 64, System: SystemCapuchin,
				Device: hw.P100().WithMemory(3 * hw.GiB / 2), Iterations: 3,
				Faults: plan, Devices: devices,
			})
			if !res.OK {
				t.Fatalf("run failed: %v", res.Err)
			}
			jsonl, _, _ := col.AppendJSONL(nil, obs.Cursor{})
			var pin bytes.Buffer
			fmt.Fprintf(&pin, "# events.jsonl: %d bytes, sha256 %x\n", len(jsonl), sha256.Sum256(jsonl))
			if err := obs.BuildMetrics(col.Events(), col.Decisions()).WritePrometheus(&pin); err != nil {
				t.Fatal(err)
			}
			checkTransferPin(t, fmt.Sprintf("transfer_pin_%ddev", devices), pin.Bytes(), jsonl)
			checkTransferCoverage(t, col, devices > 1)
		})
	}
}

// checkTransferPin compares pin with testdata/<name>.golden, or rewrites
// it under -update.
func checkTransferPin(t *testing.T, name string, pin, jsonl []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, pin, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if bytes.Equal(want, pin) {
		return
	}
	dir, err := os.MkdirTemp("", name+"-") // outlives the test, for diffing
	if err != nil {
		t.Fatal(err)
	}
	gotPin := filepath.Join(dir, name+".golden")
	gotJSONL := filepath.Join(dir, name+".jsonl")
	if err := os.WriteFile(gotPin, pin, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gotJSONL, jsonl, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Errorf("%s drifted; actual pin in %s, actual event stream in %s", path, gotPin, gotJSONL)
}

// checkTransferCoverage demands that a run's log col holds at least one
// landed and one aborted attempt of each transfer kind, at least one
// retry, and, with several replicas, at least one comm-aware deferral of
// a proactive copy. Every deferral, proactive or mandatory, records one
// comm-defer decision, so their number is the comm/defer counter.
func checkTransferCoverage(t *testing.T, col *obs.Collector, multiDevice bool) {
	t.Helper()
	kinds := []string{"swapout", "swapin", "ondemand", "passive"}
	landed, aborted := map[string]int{}, map[string]int{}
	retries := 0
	for _, ev := range col.Events() {
		switch {
		case ev.Kind == obs.KindSpan && ev.Cat == "transfer":
			word, _, _ := strings.Cut(ev.Name, " ")
			if strings.HasSuffix(ev.Name, " !fault") {
				aborted[word]++
			} else {
				landed[word]++
			}
		case ev.Kind == obs.KindInstant && ev.Name == "retry":
			retries++
		}
	}
	deferrals, proactive := 0, 0
	for _, d := range col.Decisions() {
		if d.Action == "comm-defer" {
			deferrals++
			if strings.HasPrefix(d.Reason, "deferred swapout ") || strings.HasPrefix(d.Reason, "deferred swapin ") {
				proactive++
			}
		}
	}
	t.Logf("landed %v, aborted %v, %d retries, %d comm-defer decisions", landed, aborted, retries, deferrals)
	for _, k := range kinds {
		if landed[k] == 0 || aborted[k] == 0 {
			t.Errorf("%s transfers: %d landed, %d aborted; want both", k, landed[k], aborted[k])
		}
	}
	if retries == 0 {
		t.Error("no transfer retried")
	}
	if multiDevice && proactive == 0 {
		t.Errorf("no comm-defer decision for a proactive copy among %d", deferrals)
	}
	if c := obs.BuildMetrics(col.Events(), col.Decisions()).Counter("comm/defer"); c != int64(deferrals) {
		t.Errorf("comm/defer counter %d, want the %d comm-defer decisions", c, deferrals)
	}
}
