package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"capuchin/internal/core"
	"capuchin/internal/exec"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/testutil"
)

// TestHotPathNeutrality is the zero-alloc hot-path work's correctness
// pin: every optimization in the inner loop (ID interning, arena
// allocation, pooled event queues, batched span recording, BFC chunk
// reuse) must be invisible in every rendered artifact. The test runs
// the quick experiment suite, the fleet scenario, and the arena
// tournament, and compares tables, fleet JSON and Prometheus exposition
// byte-for-byte against checked-in goldens.
//
// The table comparisons deliberately bypass the -update flag: these
// goldens predate the hot-path work, and drifting them is a behavior
// change, never a refresh. (Intentional policy changes regenerate via
// the TestGolden* tests and make goldens, which will move this pin
// too.) The JSON and Prometheus goldens do honor -update — they were
// introduced alongside this test.
func TestHotPathNeutrality(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite")
	}
	o := goldenOpts()

	// Quick suite and arena tables against the pre-existing goldens.
	pinTable(t, "fig1_quick", Fig1(o))
	pinTable(t, "table2_quick", Table2(o))
	pinTable(t, "arena_quick", Arena(o))

	// Fleet: one scenario run yields both the table (pre-existing
	// golden) and the JSON artifact bytes (golden introduced with this
	// test; meta normalized because it embeds toolchain/git state).
	fc, err := FleetScenarios(o, FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pinTable(t, "fleet_quick", FleetTableFrom(fc))
	fc.Meta = RunMeta{Tool: "neutrality-pin", GoVersion: "pinned"}
	var fleetJSON bytes.Buffer
	if err := fc.WriteJSON(&fleetJSON); err != nil {
		t.Fatal(err)
	}
	pinBytes(t, filepath.Join("testdata", "fleet_quick_json.golden"), fleetJSON.Bytes(), *update)

	// Observability: a memory-pressured residual CNN with Capuchin and
	// a Collector attached must render the identical Prometheus
	// exposition (golden introduced with this test).
	met := runResidualObserved(t)
	var prom bytes.Buffer
	if err := met.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	pinBytes(t, filepath.Join("testdata", "residual_prom.golden"), prom.Bytes(), *update)
}

// pinTable renders a table and demands byte-equality with the existing
// golden — no update path.
func pinTable(t *testing.T, name string, tbl *Table) {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	pinBytes(t, filepath.Join("testdata", name+".golden"), buf.Bytes(), false)
}

// pinBytes compares got against the golden at path; when regen is true
// it rewrites the golden instead (only the goldens introduced with this
// test pass a true flag).
func pinBytes(t *testing.T, path string, got []byte, regen bool) {
	t.Helper()
	if regen {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s drifted: hot-path neutrality violated (%d bytes, want %d)", path, len(got), len(want))
	}
}

// runResidualObserved runs the residual CNN of testutil.ResidualCNN
// under memory pressure with Capuchin and a Collector, and folds its log
// into a metrics registry (obs.BuildMetrics).
func runResidualObserved(t *testing.T) *obs.Metrics {
	t.Helper()
	col := obs.NewCollector()
	s, err := exec.NewSession(testutil.ResidualCNN(t), exec.Config{
		Device: testutil.Device(24 * hw.MiB),
		Policy: core.New(core.Options{}),
		Tracer: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	return obs.BuildMetrics(col.Events(), col.Decisions())
}
