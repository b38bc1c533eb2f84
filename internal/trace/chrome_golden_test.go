package trace_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"capuchin/internal/core"
	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
	"capuchin/internal/testutil"
	"capuchin/internal/trace"
)

// update regenerates the golden Chrome trace, the access tape golden and
// the stream span golden instead of comparing:
//
//	go test ./internal/trace -run 'ChromeGolden|AccessTapeGolden|SpansGolden' -update
var update = flag.Bool("update", false, "rewrite the golden Chrome trace, access tapes and stream spans")

// observedTensor is the tensor whose accesses the observed run renders.
const observedTensor = "res0_relu1:0"

// runObserved executes the residual CNN under memory pressure with the
// full observability stack attached: Capuchin as the policy (decision
// audit) and a Collector whose log is folded into metrics. Its events
// are returned a second time with observedTensor's accesses spliced in
// as "access" instants (withAccesses).
func runObserved(tb testing.TB) ([]exec.IterStats, *obs.Collector, *obs.Metrics, []obs.Event) {
	tb.Helper()
	col := obs.NewCollector()
	g := testutil.ResidualCNN(tb)
	s, err := exec.NewSession(g, exec.Config{
		Device: testutil.Device(24 * hw.MiB),
		Policy: core.New(core.Options{}),
		Tracer: col,
	})
	if err != nil {
		tb.Fatal(err)
	}
	sts, err := s.Run(2)
	if err != nil {
		tb.Fatal(err)
	}
	events := withAccesses(g, col.Events(), trace.Tape(g, col.Events(), col.Decisions()), observedTensor)
	return sts, col, obs.BuildMetrics(col.Events(), col.Decisions()), events
}

// withAccesses returns events with tensor id's accesses on tape spliced
// in as "access" instants on the cpu lane: a kernel span's reads and
// produces right after it and its workspace free, a Dealloc right after
// its free/dead instant. The tape is Tape's fold of events, so its
// accesses come in the order of the events they derive from.
func withAccesses(g *graph.Graph, events []obs.Event, tape []trace.Event, id string) []obs.Event {
	t := g.Tensor(id)
	nodes := make(map[string]*graph.Node, len(g.Nodes))
	for _, n := range g.Nodes {
		nodes[n.ID] = n
	}
	var out []obs.Event
	next := 0
	splice := func(n int, at sim.Time) {
		for _, a := range tape[next : next+n] {
			if a.TensorID != id {
				continue
			}
			out = append(out, obs.Event{
				Kind: obs.KindInstant, Cat: "access", Name: a.Kind.String() + " " + id,
				Lane: "cpu", Start: at, Iter: a.Iter, Tensor: id, Node: a.NodeID,
				Bytes: t.Bytes(), Detail: fmt.Sprintf("access #%d", a.Count),
			})
		}
		next += n
	}
	for i := 0; i < len(events); i++ {
		ev := events[i]
		out = append(out, ev)
		switch {
		case ev.Cat == "kernel":
			if i+1 < len(events) && events[i+1].Cat == "free" && events[i+1].Detail == "workspace" {
				i++
				out = append(out, events[i])
			}
			n := nodes[ev.Node]
			splice(len(n.Inputs), ev.Start)
			splice(len(n.Outputs), ev.End)
		case ev.Cat == "free" && ev.Detail == "dead":
			splice(1, ev.Start)
		}
	}
	return out
}

// chromeFile mirrors the export's top-level JSON shape.
type chromeFile struct {
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	TraceEvents     []json.RawMessage `json:"traceEvents"`
}

type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args"`
	Scope string         `json:"s"`
}

// TestChromeGolden pins the Chrome trace export of a small ResNet-ish run
// byte-for-byte, and validates the structural invariants Perfetto relies
// on: parseable JSON, monotonically non-decreasing timestamps, and matched
// B/E span pairs on every lane.
func TestChromeGolden(t *testing.T) {
	_, _, _, events := runObserved(t)
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (regenerate with go test ./internal/trace -run ChromeGolden -update): %v", err)
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Errorf("chrome trace drifted from golden (regenerate with -update if the change is intended); got %d bytes, want %d", buf.Len(), len(want))
		}
	}

	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}

	lanes := make(map[string]bool)
	depth := make(map[int]int)
	counts := make(map[string]int)
	lastTS := -1.0
	for _, raw := range f.TraceEvents {
		var ev chromeEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatal(err)
		}
		counts[ev.Ph]++
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				lanes[ev.Args["name"].(string)] = true
			}
			continue
		case "B":
			depth[ev.TID]++
		case "E":
			depth[ev.TID]--
			if depth[ev.TID] < 0 {
				t.Fatalf("unmatched E on tid %d at ts %.2f", ev.TID, ev.TS)
			}
		case "i":
			if ev.Scope != "t" {
				t.Errorf("instant %q missing thread scope", ev.Name)
			}
		}
		if ev.TS < lastTS {
			t.Fatalf("timestamps regress: %.3f after %.3f (%s %q)", ev.TS, lastTS, ev.Ph, ev.Name)
		}
		lastTS = ev.TS
	}
	for tid, d := range depth {
		if d != 0 {
			t.Errorf("tid %d ends with %d unclosed spans", tid, d)
		}
	}
	if counts["B"] == 0 || counts["B"] != counts["E"] {
		t.Errorf("span pairs unbalanced: %d B vs %d E", counts["B"], counts["E"])
	}
	if counts["C"] == 0 {
		t.Error("no memory counter records")
	}
	if counts["i"] == 0 {
		t.Error("no instant records")
	}
	for _, lane := range []string{"compute", "h2d", "d2h", "cpu"} {
		if !lanes[lane] {
			t.Errorf("lane %q missing from thread metadata", lane)
		}
	}
}

// TestProfileSmoke drives every exporter off one observed run: the Chrome
// trace, the memory profile report, the decision audit, and the metrics
// text dump. It is the test target behind make profile-smoke.
func TestProfileSmoke(t *testing.T) {
	sts, col, met, events := runObserved(t)

	var chrome bytes.Buffer
	if err := obs.WriteChromeTrace(&chrome, col.Events()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(chrome.Bytes()) {
		t.Error("chrome trace is not valid JSON")
	}

	prof := obs.BuildMemProfile(col.Events())
	if prof.PeakBytes <= 0 {
		t.Fatal("profile found no peak")
	}
	peak := sts[0].PeakBytes
	for _, st := range sts {
		if st.PeakBytes > peak {
			peak = st.PeakBytes
		}
	}
	if prof.PeakBytes != peak {
		t.Errorf("profile peak %d != allocator peak %d", prof.PeakBytes, peak)
	}
	var report bytes.Buffer
	if err := prof.WriteReport(&report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "device peak") {
		t.Errorf("memory report incomplete:\n%s", report.String())
	}

	subjects := obs.ExplainTensors(col.Decisions())
	if len(subjects) == 0 {
		t.Fatal("no decision subjects recorded under memory pressure")
	}
	var explain bytes.Buffer
	if err := obs.WriteExplain(&explain, subjects[0], col.Decisions(), col.Events()); err != nil {
		t.Fatal(err)
	}
	if explain.Len() == 0 {
		t.Errorf("explain output empty for %s", subjects[0])
	}

	var metrics bytes.Buffer
	if err := met.WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics.String(), "kernel") {
		t.Errorf("metrics dump missing kernel histogram:\n%s", metrics.String())
	}

	// The splice rendered exactly observedTensor's accesses as instants.
	var accessInstants int
	for _, ev := range events {
		if ev.Cat == "access" {
			accessInstants++
			if ev.Tensor != observedTensor {
				t.Errorf("access instant of another tensor: %+v", ev)
			}
		}
	}
	var want int
	for _, a := range trace.Tape(testutil.ResidualCNN(t), col.Events(), col.Decisions()) {
		if a.TensorID == observedTensor {
			want++
		}
	}
	if accessInstants == 0 || accessInstants != want {
		t.Errorf("spliced %d access instants, the tape holds %d accesses of %s", accessInstants, want, observedTensor)
	}
}
