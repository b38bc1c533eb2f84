package models_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/memory"
	"capuchin/internal/models"
	"capuchin/internal/policy/vdnn"
	"capuchin/internal/tensor"
)

// templateBatches spans batch 1, odd and prime sizes, a max-batch answer
// (1119) and the search ceiling.
var templateBatches = []int64{1, 2, 3, 7, 64, 217, 1119, 4096}

var buildModes = []struct {
	name string
	opt  graph.BuildOptions
}{
	{"graph", graph.GraphModeOptions()},
	{"eager", graph.EagerModeOptions()},
}

// TestTemplateMatchesBuild instantiates every model's template, in both
// build modes and at every batch of templateBatches (and every sequence
// bucket for the models with a sequence axis), and requires the result
// to be structurally identical to a fresh build at that batch: nodes,
// ops and their shape attributes, tensors, lineage, producers, consumers
// and the loss. Every instance is made three times, fresh, refilled
// into a dirty spare (see dirtySpare), and refilled into the one
// instance each template carries from batch to batch, so every batch
// after the first compares a refill's op attributes against a build at
// a second batch; all three must match.
func TestTemplateMatchesBuild(t *testing.T) {
	for _, name := range models.Names() {
		spec, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range buildModes {
			tmpl, err := spec.Template(0, mode.opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mode.name, err)
			}
			var carried *graph.Graph
			for _, b := range templateBatches {
				want, err := spec.Build(b, mode.opt)
				if err != nil {
					t.Fatal(err)
				}
				carried = compareTemplate(t, fmt.Sprintf("%s/%s/b%d", name, mode.name, b), tmpl, b, want, carried)
			}
			for _, seq := range spec.SeqBuckets {
				tmpl, err := spec.Template(seq, mode.opt)
				if err != nil {
					t.Fatalf("%s/%s/seq%d: %v", name, mode.name, seq, err)
				}
				var carried *graph.Graph
				for _, b := range templateBatches {
					want, err := spec.BuildSeq(b, seq, mode.opt)
					if err != nil {
						t.Fatal(err)
					}
					carried = compareTemplate(t, fmt.Sprintf("%s/%s/seq%d/b%d", name, mode.name, seq, b), tmpl, b, want, carried)
				}
			}
		}
	}
}

// compareTemplate instantiates tmpl at batch b fresh, into a dirty
// spare and into carried (an instance of tmpl at the previous batch, or
// nil), and compares all three with want. Both refills must take the
// refill path: the same graph with the same tensors. It returns the
// instance to carry to the next batch.
func compareTemplate(t *testing.T, label string, tmpl *graph.Template, b int64, want, carried *graph.Graph) *graph.Graph {
	t.Helper()
	got, err := tmpl.Instantiate(b, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if msg := graphDiff(got, want); msg != "" {
		t.Errorf("%s: instance differs from a fresh build: %s", label, msg)
	}
	if carried == nil {
		carried = got
	}
	for _, c := range []struct {
		what  string
		spare *graph.Graph
	}{
		{"a dirty spare", dirtySpare(t, label, tmpl, b)},
		{"the instance carried from the previous batch", carried},
	} {
		tensors := slices.Clone(c.spare.TensorList())
		got, err := tmpl.Instantiate(b, c.spare)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got != c.spare || !slices.Equal(got.TensorList(), tensors) {
			t.Errorf("%s: Instantiate into %s allocated a new graph or new tensors instead of refilling it", label, c.what)
		}
		if msg := graphDiff(got, want); msg != "" {
			t.Errorf("%s: instance refilled into %s differs from a fresh build: %s", label, c.what, msg)
		}
	}
	return carried
}

// dirtySpare returns an instance of tmpl at a batch other than b that
// has been through a vDNN session that swapped and then ran out of
// memory, with every tensor's runtime state (status, allocation,
// fingerprint, access count and time) left set, so a refill that skips
// any of it shows. The device holds the parameters plus a shrinking
// share of the activations until such a session happens.
func dirtySpare(t *testing.T, label string, tmpl *graph.Template, b int64) *graph.Graph {
	t.Helper()
	for share := int64(2); share <= 1<<12; share *= 2 {
		g, err := tmpl.Instantiate(b%5+2, nil)
		if err != nil {
			t.Fatalf("%s: spare: %v", label, err)
		}
		var params, acts int64
		for _, tt := range g.TensorList() {
			if tt.Persistent {
				params += tt.Bytes()
			} else {
				acts += tt.Bytes()
			}
		}
		dev := hw.P100().WithMemory(params + acts/share)
		s, err := exec.NewSession(g, exec.Config{Device: dev, Policy: vdnn.New(g, vdnn.All), CoupledSwap: true})
		if err != nil {
			t.Fatalf("%s: spare session: %v", label, err)
		}
		if stats, err := s.Run(1); !errors.Is(err, exec.ErrIterationOOM) || stats[0].SwapOutCount == 0 {
			continue
		}
		for _, tt := range g.TensorList() {
			tt.Status, tt.Alloc = tensor.SwappingIn, &memory.Allocation{}
			tt.Fingerprint, tt.AccessCount, tt.LastAccess = 1, 1, 1
		}
		return g
	}
	t.Fatalf("%s: no device size made the spare's session swap and then run out of memory", label)
	return nil
}

// graphDiff reports the first structural difference between an
// instantiated graph and a fresh build, or "". Every tensor reference in
// got must also be got's own tensor at that index, so an instance that
// leaked a template tensor fails even when its fields match.
func graphDiff(got, want *graph.Graph) string {
	if got.Name != want.Name || len(got.Nodes) != len(want.Nodes) {
		return fmt.Sprintf("graph %s with %d nodes, want %s with %d", got.Name, len(got.Nodes), want.Name, len(want.Nodes))
	}
	gl, wl := got.TensorList(), want.TensorList()
	if len(gl) != len(wl) {
		return fmt.Sprintf("%d tensors, want %d", len(gl), len(wl))
	}
	refs := func(what string, g, w []*tensor.Tensor) string {
		if len(g) != len(w) {
			return fmt.Sprintf("%s: %d tensors, want %d", what, len(g), len(w))
		}
		for i := range g {
			if g[i].ID != w[i].ID || g[i].Idx != w[i].Idx || gl[g[i].Idx] != g[i] {
				return fmt.Sprintf("%s[%d] = %s (idx %d), want %s (idx %d) owned by the instance", what, i, g[i].ID, g[i].Idx, w[i].ID, w[i].Idx)
			}
		}
		return ""
	}
	for i, gn := range got.Nodes {
		wn := want.Nodes[i]
		if gn.ID != wn.ID || gn.Phase != wn.Phase || gn.Pos != wn.Pos {
			return fmt.Sprintf("node %d = %s/%v/%d, want %s/%v/%d", i, gn.ID, gn.Phase, gn.Pos, wn.ID, wn.Phase, wn.Pos)
		}
		if !reflect.DeepEqual(gn.Op, wn.Op) {
			return fmt.Sprintf("node %s op = %#v, want %#v", gn.ID, gn.Op, wn.Op)
		}
		if msg := refs("node "+gn.ID+" inputs", gn.Inputs, wn.Inputs); msg != "" {
			return msg
		}
		if msg := refs("node "+gn.ID+" outputs", gn.Outputs, wn.Outputs); msg != "" {
			return msg
		}
	}
	for i, gt := range gl {
		wt := wl[i]
		if gt.ID != wt.ID || gt.Idx != wt.Idx || !gt.Shape.Equal(wt.Shape) || gt.DType != wt.DType ||
			gt.Persistent != wt.Persistent || gt.Gradient != wt.Gradient || gt.OpName != wt.OpName {
			return fmt.Sprintf("tensor %d = %+v, want %+v", i, *gt, *wt)
		}
		if gt.Status != tensor.Freed || gt.Alloc != nil || gt.Fingerprint != 0 || gt.AccessCount != 0 || gt.LastAccess != 0 {
			return fmt.Sprintf("tensor %s carries runtime state: %v", gt.ID, gt)
		}
		if got.Tensor(gt.ID) != gt {
			return fmt.Sprintf("Tensor(%q) is not the instance's own tensor", gt.ID)
		}
		if msg := refs("lineage of "+gt.ID, gt.Inputs, wt.Inputs); msg != "" {
			return msg
		}
		gp, wp := got.Producer(gt), want.Producer(wt)
		if (gp == nil) != (wp == nil) || gp != nil && (gp.ID != wp.ID || got.Nodes[gp.Pos] != gp) {
			return fmt.Sprintf("producer of %s = %v, want %v", gt.ID, gp, wp)
		}
		gc, wc := got.Consumers(gt), want.Consumers(wt)
		if len(gc) != len(wc) {
			return fmt.Sprintf("%s has %d consumers, want %d", gt.ID, len(gc), len(wc))
		}
		for j := range gc {
			if gc[j].ID != wc[j].ID || got.Nodes[gc[j].Pos] != gc[j] {
				return fmt.Sprintf("consumer %d of %s = %s, want %s", j, gt.ID, gc[j].ID, wc[j].ID)
			}
		}
	}
	if got.Loss.ID != want.Loss.ID || gl[got.Loss.Idx] != got.Loss {
		return fmt.Sprintf("loss = %s, want %s", got.Loss.ID, want.Loss.ID)
	}
	return ""
}

// TestTemplateConcurrentInstantiate instantiates one template from eight
// goroutines and runs a swapping session on each instance. Under -race
// (make race) any write into state the instances share with the template
// fails; every session must also match a session on a fresh build.
func TestTemplateConcurrentInstantiate(t *testing.T) {
	const workers, iters = 8, 2
	dev := hw.P100().WithMemory(2 * hw.GiB)
	spec, err := models.Get("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	opt := graph.GraphModeOptions()
	tmpl, err := spec.Template(0, opt)
	if err != nil {
		t.Fatal(err)
	}
	run := func(g *graph.Graph) ([]exec.IterStats, error) {
		s, err := exec.NewSession(g, exec.Config{Device: dev, Policy: vdnn.New(g, vdnn.ConvOnly), CoupledSwap: true})
		if err != nil {
			return nil, err
		}
		return s.Run(iters)
	}
	got := make([][]exec.IterStats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := tmpl.Instantiate(int64(16*(i+1)), nil)
			if err == nil {
				got[i], err = run(g)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		g, err := spec.Build(int64(16*(i+1)), opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := run(g)
		if err != nil {
			t.Fatal(err)
		}
		if got[i][iters-1].SwapOutCount == 0 {
			t.Errorf("worker %d: the session never swapped", i)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("worker %d: instance session diverged from a fresh build's\ngot:  %v\nwant: %v", i, got[i], want)
		}
	}
}
