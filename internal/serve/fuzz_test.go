package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"capuchin/internal/bench"
)

// FuzzDecodeRunRequest feeds arbitrary submission bodies to the decoder
// behind POST /v1/runs, the daemon's trust boundary. It must never
// panic; every config it accepts must be within the size caps, have a
// positive device memory and a non-negative host memory, and be already
// canonical
// (canonicalization is idempotent); and the same request with every
// default spelled out must decode to an equal canonical config with an
// equal run ID, so the store dedups the two.
func FuzzDecodeRunRequest(f *testing.F) {
	for _, seed := range []string{
		`{"model":"resnet50","batch":8}`,
		`{"model":"resnet50","batch":8,"system":"capuchin","iterations":3,"allocator":"bfc","mode":"graph"}`,
		`{"model":"bert","batch":4,"system":"tf-ori","mode":"eager","memGiB":2.5,"hostMemGiB":64}`,
		`{"model":"lstm","batch":2,"schedule":"mixed","scheduleSeed":7,"schedulePeriod":3}`,
		`{"model":"alexnet","batch":1,"devices":2,"commOblivious":true,"faults":"default,seed=3"}`,
		`{"model":"resnet50","batch":8,"devices":1,"commOblivious":true}`,
		`{"model":"resnet50","batch":8,"schedule":"batch","devices":2}`,
		`{"model":"resnet50","batch":0}`, `{"model":"nope","batch":1}`,
		`{"model":"resnet50","batch":8,"bogus":1}`, `{"model":"resnet50","batch":8} trailing`,
		`{"model":"resnet50","batch":8,"memGiB":1e300}`, `{"batch":-1}`, `null`, `[]`, ``,
		`{"model":"alexnet","batch":8,"hostMemGiB":1e12}`, `{"model":"alexnet","batch":8,"memGiB":1e-12}`,
		`{"model":"alexnet","batch":1,"iterations":2000000000}`, `{"model":"alexnet","batch":4096,"iterations":10000,"devices":64}`,
		`{"model":"alexnet","batch":1,"devices":100000}`, `{"model":"alexnet","batch":100000}`,
		`{"model":"resnet50","batch":8,"allocator":"bogus"}`, `{"model":"resnet50","batch":8,"allocator":"BFC"}`,
		`{"model":"resnet50","batch":8,"schedule":"bogus"}`, `{"model":"resnet50","batch":8,"schedule":"seq"}`,
		`{"model":"resnet50","batch":8,"system":"vdnn","schedule":"batch"}`,
		`{"model":"resnet50","batch":8,"system":"dtr","schedule":"batch"}`,
		`{"model":"resnet50","batch":8,"system":"chunk","schedule":"batch"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		key, err := decodeRunRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		if key.Batch > bench.MaxBatchCeiling || key.Iterations > bench.MaxIterations || key.Devices > bench.MaxDevices {
			t.Fatalf("accepted config beyond the caps: batch %d, iterations %d, devices %d",
				key.Batch, key.Iterations, key.Devices)
		}
		if key.Device.MemoryBytes <= 0 || key.HostMemory < 0 {
			t.Fatalf("accepted config with device memory %d, host memory %d",
				key.Device.MemoryBytes, key.HostMemory)
		}
		if again := bench.CanonicalConfig(key); again != key {
			t.Fatalf("canonicalization is not idempotent:\n once  %#v\n twice %#v", key, again)
		}
		// The decoder accepted the body, so its first JSON value decodes.
		var rr RunRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&rr); err != nil {
			t.Fatalf("accepted body does not decode: %v", err)
		}
		explicit := rr
		if explicit.System == "" {
			explicit.System = string(bench.SystemCapuchin)
		}
		if explicit.Iterations == 0 {
			explicit.Iterations = 3
		}
		if explicit.Allocator == "" {
			explicit.Allocator = "bfc"
		}
		if explicit.Mode == "" {
			explicit.Mode = "graph"
		}
		wire, err := json.Marshal(explicit)
		if err != nil {
			t.Fatal(err)
		}
		key2, err := decodeRunRequest(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("%s decodes but its explicit form %s does not: %v", body, wire, err)
		}
		if key2 != key {
			t.Fatalf("%s and its explicit form %s canonicalize apart:\n %#v\n %#v", body, wire, key, key2)
		}
		if runID(key2) != runID(key) {
			t.Fatalf("equal canonical configs got run IDs %s and %s", runID(key), runID(key2))
		}
	})
}
