package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"capuchin/internal/hw"
)

// update regenerates the golden tables instead of comparing against them:
//
//	go test ./internal/bench -run Golden -update
var update = flag.Bool("update", false, "rewrite golden experiment tables")

// goldenOpts pins the configuration the goldens were recorded with: quick
// sweeps on a 4 GiB P100 slice, through the parallel engine.
func goldenOpts() Options {
	return Options{Device: hw.P100().WithMemory(4 * hw.GiB), Quick: true, Iterations: 2, Jobs: 4}
}

// checkGolden renders a table and compares it byte-for-byte against
// testdata/<name>.golden, so any policy or cost-model change shows up as
// a reviewable diff rather than a silent drift.
func checkGolden(t *testing.T, name string, tbl *Table) {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with go test ./internal/bench -run Golden -update): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("%s drifted from golden\n--- want\n%s--- got\n%s", name, want, buf.Bytes())
	}
}

func TestGoldenFig1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick Fig1 takes a few seconds")
	}
	checkGolden(t, "fig1_quick", Fig1(goldenOpts()))
}

func TestGoldenFig3Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick Fig3 runs ResNet-50 for six iterations")
	}
	checkGolden(t, "fig3_quick", Fig3(goldenOpts()))
}

func TestGoldenTable2Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick Table2 takes a few seconds")
	}
	checkGolden(t, "table2_quick", Table2(goldenOpts()))
}
