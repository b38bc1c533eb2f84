package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"capuchin/internal/core"
	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/models"
)

// TestFingerprintGolden pins the fingerprint oracle's values, not just
// their agreement between runs. The conformance suite compares one run's
// fingerprints with another's, so a change to the hash itself (a new seed,
// a reordered combine, an output index folded differently) passes it
// unnoticed. This golden records, per iteration, the LossFingerprint and
// ParamFingerprint and a SHA-256 over the fingerprint of every tensor
// access the policy observes (produce, read and dealloc, in access order),
// for two cells:
//   - resnet50/b400 under Capuchin on a 16 GiB P100: swaps, recomputes
//     and the in-place parameter updates;
//   - bert/b8 under recompute-only Capuchin on a 1 GiB P100: hundreds of
//     lineage replays per guided iteration, plus on-demand swap-ins.
//
// Regenerate only for an intended change to the fingerprint function:
//
//	go test ./internal/core -run FingerprintGolden -update
func TestFingerprintGolden(t *testing.T) {
	for _, c := range []struct {
		name  string
		model string
		batch int64
		mem   int64
		opts  core.Options
	}{
		{"resnet50_b400", "resnet50", 400, 16 * hw.GiB, core.Options{}},
		{"bert_b8_recompute", "bert", 8, 1 * hw.GiB, core.Options{RecomputeOnly: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := fingerprintRecord(t, c.model, c.batch, c.mem, c.opts)
			path := filepath.Join("testdata", "fingerprints_"+c.name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with go test ./internal/core -run FingerprintGolden -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("fingerprint values changed (%s):\n got:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// fingerprintIters is the number of iterations each golden cell runs: the
// measured iteration and three guided ones, so the feedback loop has moved
// triggers at least once.
const fingerprintIters = 4

// fingerprintRecord runs one cell and renders its fingerprint record.
func fingerprintRecord(t *testing.T, model string, batch, mem int64, opts core.Options) []byte {
	t.Helper()
	spec, err := models.Get(model)
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(batch, graph.GraphModeOptions())
	if err != nil {
		t.Fatal(err)
	}
	pol := &fingerprintHasher{Policy: core.New(opts), h: sha256.New()}
	s, err := exec.NewSession(g, exec.Config{
		Device: hw.P100().WithMemory(mem), Policy: pol, CollectiveRecompute: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "# %s/b%d, %s on a %d GiB P100: per-iteration fingerprints\n", model, batch, pol.Name(), mem/hw.GiB)
	all := sha256.New()
	for i := 0; i < fingerprintIters; i++ {
		pol.h.Reset()
		pol.n = 0
		st, err := s.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		sum := pol.h.Sum(nil)
		all.Write(sum)
		fmt.Fprintf(&out, "iter=%d loss=%016x params=%016x accesses=%d recomputes=%d swaps=%d access_sha256=%x\n",
			st.Iter, st.LossFingerprint, st.ParamFingerprint, pol.n, st.RecomputeCount, st.SwapOutCount, sum)
	}
	fmt.Fprintf(&out, "all sha256=%x\n", all.Sum(nil))
	return out.Bytes()
}

// fingerprintHasher wraps a policy and hashes every access it forwards:
// the kind, the tensor ID, the access count and the tensor's fingerprint
// at the moment of the access.
type fingerprintHasher struct {
	exec.Policy
	h   hash.Hash
	n   int
	buf []byte
}

// OnAccess implements exec.Policy.
func (p *fingerprintHasher) OnAccess(acc exec.Access, env *exec.Env) {
	p.n++
	p.buf = append(p.buf[:0], byte(acc.Kind))
	p.buf = append(p.buf, acc.Tensor.ID...)
	p.buf = binary.LittleEndian.AppendUint64(p.buf, uint64(acc.Count))
	p.buf = binary.LittleEndian.AppendUint64(p.buf, acc.Tensor.Fingerprint)
	p.h.Write(p.buf)
	p.Policy.OnAccess(acc, env)
}
