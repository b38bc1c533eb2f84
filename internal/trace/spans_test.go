package trace_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"capuchin/internal/bench"
	"capuchin/internal/fault"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/trace"
)

// spanStreams are the streams capuchin-trace -spans dumps.
var spanStreams = []string{"compute", "h2d", "d2h"}

// spanCell is one capuchin-trace -spans run.
type spanCell struct {
	name string
	cfg  bench.RunConfig
}

// spanCells are a faulted static Capuchin run, a two-replica run and a
// mixed-schedule LSTM run that switches 11 times over eight signatures.
// Its session LRU rebuilds one session, and the run ends in that session
// after switching back to it.
func spanCells(tb testing.TB) []spanCell {
	tb.Helper()
	plan, err := fault.ParsePlan("seed=7,transfer=0.2,retries=2")
	if err != nil {
		tb.Fatal(err)
	}
	dev := func(gib float64) hw.DeviceSpec {
		mem, err := hw.GiBToBytes(gib)
		if err != nil {
			tb.Fatal(err)
		}
		return hw.P100().WithMemory(mem)
	}
	return []spanCell{
		{"resnet50/capuchin/b64/1.5GiB/i3/faults", bench.RunConfig{Model: "resnet50", Batch: 64,
			System: bench.SystemCapuchin, Device: dev(1.5), Iterations: 3, Faults: plan}},
		{"resnet50/capuchin/b64/1.5GiB/i3/devices2", bench.RunConfig{Model: "resnet50", Batch: 64,
			System: bench.SystemCapuchin, Device: dev(1.5), Iterations: 3, Devices: 2}},
		{"lstm/capuchin/b64/4GiB/i24/mixed-s9", bench.RunConfig{Model: "lstm", Batch: 64,
			System: bench.SystemCapuchin, Device: dev(4), Iterations: 24, Schedule: "mixed", ScheduleSeed: 9}},
	}
}

// spansTSVs runs c the way capuchin-trace -spans does, traced by tr,
// and returns each stream's span count and TSV, in spanStreams order:
// Spans folded from col's log.
func spansTSVs(tb testing.TB, c spanCell, col *obs.Collector, tr obs.Tracer) ([]int, [][]byte) {
	tb.Helper()
	if res := bench.RunTraced(c.cfg, tr); !res.OK {
		tb.Fatalf("%s: %v", c.name, res.Err)
	}
	var counts []int
	var tsvs [][]byte
	for _, st := range spanStreams {
		var b bytes.Buffer
		spans := trace.Spans(col.Events(), col.Decisions(), st)
		if err := trace.WriteSpansTSV(&b, st, spans); err != nil {
			tb.Fatal(err)
		}
		counts = append(counts, len(spans))
		tsvs = append(tsvs, b.Bytes())
	}
	return counts, tsvs
}

// discard drops every record. Teed with a Collector it makes a run
// simulate every iteration.
type discard struct{}

func (discard) Emit(obs.Event)      {}
func (discard) Decide(obs.Decision) {}

// TestSpansGolden pins capuchin-trace -spans on every cell and stream as
// one line: the cell, the stream, its span count and the SHA-256 of its
// TSV. The golden was made by the streams' own span recorder, which the
// fold replaced. On a mismatch each stream's TSV is written to a
// temporary directory beside the TSV of a run that simulates every
// iteration. Regenerate with
//
//	go test ./internal/trace -run SpansGolden -update
func TestSpansGolden(t *testing.T) {
	var got bytes.Buffer
	cells := spanCells(t)
	tsvs := make([][][]byte, len(cells))
	for i, c := range cells {
		col := obs.NewCollector()
		var counts []int
		counts, tsvs[i] = spansTSVs(t, c, col, col)
		for j, st := range spanStreams {
			fmt.Fprintf(&got, "%s\t%s\t%d\t%x\n", c.name, st, counts[j], sha256.Sum256(tsvs[i][j]))
		}
	}
	path := filepath.Join("testdata", "spans.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if bytes.Equal(want, got.Bytes()) {
		return
	}
	dir, err := os.MkdirTemp("", "spans-golden-")
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, b []byte) {
		file := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range cells {
		col := obs.NewCollector()
		_, full := spansTSVs(t, c, col, obs.Tee(col, discard{}))
		for j, st := range spanStreams {
			write(c.name+"/"+st+".tsv", tsvs[i][j])
			write(c.name+"/"+st+".full.tsv", full[j])
		}
	}
	t.Errorf("stream spans drifted from golden (TSVs in %s)\n--- want\n%s--- got\n%s", dir, want, got.Bytes())
}
