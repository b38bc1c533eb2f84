package models

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/tensor"
)

// update rewrites the op-cost golden instead of comparing against it:
//
//	go test ./internal/models -run OpCostGolden -update
var update = flag.Bool("update", false, "rewrite the op-cost golden")

// TestOpCostGolden pins what the operator library tells the simulator
// about every node of every zoo model: at batch 8, in graph and eager
// mode, on each catalog device, the node's ID, op name and output shapes,
// and each algorithm's name, workspace and duration, in node order. The
// golden holds one SHA-256 and a node count per (model, mode, device). On
// a mismatch the full tables are written to a temp dir for diffing;
// -update rewrites the golden.
func TestOpCostGolden(t *testing.T) {
	modes := []struct {
		name string
		opt  graph.BuildOptions
	}{{"graph", graph.GraphModeOptions()}, {"eager", graph.EagerModeOptions()}}
	devices := []struct {
		name string
		spec hw.DeviceSpec
	}{{"p100", hw.P100()}, {"v100", hw.V100()}, {"t4", hw.T4()}}

	var pin bytes.Buffer
	tables := map[string][]byte{}
	for _, name := range Names() {
		spec, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes {
			g, err := spec.Build(8, mode.opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mode.name, err)
			}
			for _, dev := range devices {
				table := opCostTable(g, dev.spec)
				key := fmt.Sprintf("%s %s %s", name, mode.name, dev.name)
				tables[strings.ReplaceAll(key, " ", "_")] = table
				fmt.Fprintf(&pin, "%s nodes=%d sha256=%x\n", key, len(g.Nodes), sha256.Sum256(table))
			}
		}
	}

	path := filepath.Join("testdata", "op_cost.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, pin.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if bytes.Equal(want, pin.Bytes()) {
		return
	}
	dir, err := os.MkdirTemp("", "op_cost-") // outlives the test, for diffing
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "op_cost.golden"), pin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for key, table := range tables {
		if err := os.WriteFile(filepath.Join(dir, key+".tsv"), table, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Errorf("%s drifted; actual pin and per-cell tables in %s", path, dir)
}

// opCostTable renders one line per node: ID, op name, output shapes, then
// name/workspace/duration for each algorithm.
func opCostTable(g *graph.Graph, dev hw.DeviceSpec) []byte {
	var b bytes.Buffer
	in := make([]tensor.Shape, 0, 8)
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "%s\t%s\t", n.ID, n.Op.Name())
		for i, o := range n.Outputs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(o.Shape.String())
		}
		in = in[:0]
		for _, x := range n.Inputs {
			in = append(in, x.Shape)
		}
		for _, a := range n.Op.Algorithms(dev, in, nil) {
			fmt.Fprintf(&b, "\t%s/%d/%d", a.Name, a.Workspace, int64(a.Duration))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}
