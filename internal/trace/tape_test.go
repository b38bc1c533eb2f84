package trace_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"capuchin/internal/bench"
	"capuchin/internal/exec"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/trace"
)

// tapeCell is one capuchin-trace access-TSV run: a static cell when
// schedule is empty, else a dynamic one. The cells cover every system on
// ResNet-50 under enough pressure that each manages memory or runs out
// of it, Capuchin on six more models, and Capuchin following five shape
// schedules, one of which builds ten sessions and evicts six.
type tapeCell struct {
	model    string
	batch    int64
	mem      float64 // GiB
	system   string
	iters    int
	schedule string
	seed     uint64
}

func (c tapeCell) name() string {
	n := fmt.Sprintf("%s/%s/b%d/%gGiB/i%d", c.model, c.system, c.batch, c.mem, c.iters)
	if c.schedule != "" {
		n += fmt.Sprintf("/%s-s%d", c.schedule, c.seed)
	}
	return n
}

func tapeCells() []tapeCell {
	var cells []tapeCell
	for _, sys := range bench.SystemNames() {
		for _, c := range []struct {
			batch int64
			mem   float64
		}{{64, 2}, {64, 4}, {128, 4}} {
			cells = append(cells, tapeCell{model: "resnet50", batch: c.batch, mem: c.mem, system: sys, iters: 5})
		}
	}
	for _, m := range []string{"vgg16", "bert", "inceptionv3", "inceptionv4", "resnet152", "lstm"} {
		cells = append(cells, tapeCell{model: m, batch: 64, mem: 4, system: "capuchin", iters: 5})
	}
	return append(cells,
		tapeCell{model: "resnet50", batch: 256, mem: 4, system: "capuchin", iters: 12, schedule: "batch", seed: 1},
		tapeCell{model: "resnet50", batch: 256, mem: 4, system: "capuchin", iters: 12, schedule: "batch", seed: 3},
		tapeCell{model: "resnet50", batch: 256, mem: 4, system: "capuchin", iters: 12, schedule: "constant", seed: 1},
		tapeCell{model: "bert", batch: 32, mem: 8, system: "capuchin", iters: 12, schedule: "seq", seed: 1},
		tapeCell{model: "bert", batch: 32, mem: 8, system: "capuchin", iters: 30, schedule: "mixed", seed: 5},
	)
}

// runCell runs c the way capuchin-trace's access-TSV mode does and
// returns its tape, its per-iteration stats and the run's error.
func runCell(tb testing.TB, c tapeCell) ([]trace.Event, []exec.IterStats, error) {
	tb.Helper()
	mem, err := hw.GiBToBytes(c.mem)
	if err != nil {
		tb.Fatal(err)
	}
	col := obs.NewCollector()
	res, sess, _ := bench.RunLive(bench.RunConfig{
		Model: c.model, Batch: c.batch, System: bench.System(c.system),
		Device: hw.P100().WithMemory(mem), Iterations: c.iters,
		Schedule: c.schedule, ScheduleSeed: c.seed,
	}, col)
	if sess == nil {
		tb.Fatalf("%s: no session: %v", c.name(), res.Err)
	}
	return trace.Tape(sess.Graph(), col.Events(), col.Decisions()), res.Stats, res.Err
}

// tsv renders a tape as capuchin-trace prints it.
func tsv(tb testing.TB, tape []trace.Event) []byte {
	var b bytes.Buffer
	if err := trace.WriteTSV(&b, tape); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// TestAccessTapeGolden pins every cell's access tape as one line: the
// cell, its access count and the SHA-256 of its TSV. Each tape must hold
// every access the executor reported, and keeping one tensor's accesses
// must print exactly that tensor's rows. Regenerate with
//
//	go test ./internal/trace -run AccessTapeGolden -update
func TestAccessTapeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every system and the dynamic schedules")
	}
	var got bytes.Buffer
	for _, c := range tapeCells() {
		tape, sts, err := runCell(t, c)
		if err != nil && !errors.Is(err, exec.ErrIterationOOM) {
			t.Fatalf("%s: %v", c.name(), err)
		}
		accesses := 0
		for _, st := range sts {
			accesses += st.Accesses
		}
		if len(tape) != accesses {
			t.Errorf("%s: tape holds %d accesses, the executor reported %d", c.name(), len(tape), accesses)
		}
		all := tsv(t, tape)
		fmt.Fprintf(&got, "%s\t%d\t%x\n", c.name(), len(tape), sha256.Sum256(all))

		id := tape[len(tape)/2].TensorID
		header, rows, _ := bytes.Cut(all, []byte("\n"))
		want := append(slices.Clip(header), '\n')
		for _, row := range bytes.SplitAfter(rows, []byte("\n")) {
			if f := bytes.Split(row, []byte("\t")); len(f) > 1 && string(f[1]) == id {
				want = append(want, row...)
			}
		}
		kept := slices.DeleteFunc(slices.Clone(tape), func(e trace.Event) bool { return e.TensorID != id })
		if one := tsv(t, kept); !bytes.Equal(one, want) {
			t.Errorf("%s: %s's tape is not its rows of the full tape:\n%s--- want\n%s", c.name(), id, one, want)
		}
	}
	path := filepath.Join("testdata", "access_tape.golden")
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
	if !bytes.Equal(want, got.Bytes()) {
		t.Errorf("access tapes drifted from golden\n--- want\n%s--- got\n%s", want, got.Bytes())
	}
}
