package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"capuchin/internal/bench"
	"capuchin/internal/obs"
	"capuchin/internal/serve/loadgen"
)

// testConfig keeps serve tests fast and deterministic.
func testConfig() Config {
	return Config{Workers: 2, QueueDepth: 8}
}

// testRequest is a cell small enough to simulate in milliseconds.
func testRequest() RunRequest {
	return RunRequest{Model: "resnet50", Batch: 8, System: "tf-ori",
		Iterations: 2, MemGiB: 2}
}

func postRun(t *testing.T, client *http.Client, base string, rr RunRequest) (*http.Response, submitReply) {
	t.Helper()
	body, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep submitReply
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatalf("decoding submit reply: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, rep
}

func getBody(t *testing.T, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestSubmitFetchByteIdentity is the core serving contract: a result
// fetched over HTTP is byte-identical to encoding a direct bench.Run of
// the same canonical configuration.
func TestSubmitFetchByteIdentity(t *testing.T) {
	s := NewServer(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rr := testRequest()
	resp, rep := postRun(t, ts.Client(), ts.URL, rr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", resp.StatusCode)
	}
	if rep.Deduped || rep.ID == "" {
		t.Fatalf("submit reply: %+v", rep)
	}

	code, served := getBody(t, ts.Client(), ts.URL+"/v1/runs/"+rep.ID+"?wait=1")
	if code != http.StatusOK {
		t.Fatalf("result: got %d, want 200 (%s)", code, served)
	}

	cfg, err := rr.ToRunConfig()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := EncodeResult(bench.Run(bench.CanonicalConfig(cfg)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, direct) {
		t.Errorf("served result differs from direct bench.Run encoding:\nserved: %s\ndirect: %s", served, direct)
	}
	var wire resultWire
	if err := json.Unmarshal(served, &wire); err != nil {
		t.Fatal(err)
	}
	if !wire.OK || wire.Throughput <= 0 {
		t.Errorf("served run not OK: %s", served)
	}
}

// TestSubmitDedup: resubmitting a config — even spelled with different
// defaulted fields — answers 200 deduped and simulates nothing new.
func TestSubmitDedup(t *testing.T) {
	s := NewServer(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp1, rep1 := postRun(t, ts.Client(), ts.URL, testRequest())
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: got %d", resp1.StatusCode)
	}
	// Same cell, defaults spelled explicitly: must collapse to one ID.
	alias := testRequest()
	alias.Allocator = "bfc"
	alias.Mode = "graph"
	resp2, rep2 := postRun(t, ts.Client(), ts.URL, alias)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("dup submit: got %d, want 200", resp2.StatusCode)
	}
	if !rep2.Deduped || rep2.ID != rep1.ID {
		t.Errorf("dup reply %+v, want deduped with ID %s", rep2, rep1.ID)
	}
	if code, _ := getBody(t, ts.Client(), ts.URL+"/v1/runs/"+rep1.ID+"?wait=1"); code != http.StatusOK {
		t.Fatalf("result: got %d", code)
	}
	st := s.Snapshot()
	if st.Admitted != 1 || st.Deduped != 1 || st.Completed != 1 {
		t.Errorf("stats admitted=%d deduped=%d completed=%d, want 1/1/1",
			st.Admitted, st.Deduped, st.Completed)
	}
}

// TestSubmitValidation: POST /v1/runs answers each body with the status
// its validity dictates. Invalid requests are refused at decode time with
// a 400 and never reach the store.
func TestSubmitValidation(t *testing.T) {
	s := NewServer(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const valid = `{"model":"resnet50","batch":8,"system":"tf-ori","iterations":2,"memGiB":2}`
	for _, tc := range []struct {
		name, body string
		code       int
		msg        string // a 400's body must name this limit
	}{
		{"valid", valid, http.StatusAccepted, ""},
		{"duplicate", valid, http.StatusOK, ""},
		{"unknown model", `{"model":"nonesuch","batch":8}`, http.StatusBadRequest, ""},
		{"zero batch", `{"model":"resnet50"}`, http.StatusBadRequest, ""},
		{"bad mode", `{"model":"resnet50","batch":8,"mode":"lazy"}`, http.StatusBadRequest, ""},
		{"bad system", `{"model":"resnet50","batch":8,"system":"magic"}`, http.StatusBadRequest, ""},
		{"bad faults", `{"model":"resnet50","batch":8,"faults":"oops"}`, http.StatusBadRequest, ""},
		{"unknown field", `{"model":"resnet50","batch":8,"turbo":true}`, http.StatusBadRequest, ""},
		{"not json", `batch=8`, http.StatusBadRequest, ""},
		{"negative iterations", `{"model":"resnet50","batch":8,"iterations":-1}`, http.StatusBadRequest, ""},
		{"negative devices", `{"model":"resnet50","batch":8,"devices":-2}`, http.StatusBadRequest, ""},
		{"negative schedule period", `{"model":"resnet50","batch":8,"schedule":"batch","schedulePeriod":-1}`, http.StatusBadRequest, ""},
		{"negative memory", `{"model":"resnet50","batch":8,"memGiB":-4}`, http.StatusBadRequest, ""},
		{"negative host memory", `{"model":"resnet50","batch":8,"hostMemGiB":-1}`, http.StatusBadRequest, ""},
		{"dynamic cluster", `{"model":"resnet50","batch":8,"schedule":"batch","devices":2}`, http.StatusBadRequest, ""},
		{"iterations above cap", `{"model":"alexnet","batch":1,"iterations":2000000000}`, http.StatusBadRequest, "<= 10000"},
		{"iterations one above cap", `{"model":"alexnet","batch":1,"iterations":10001}`, http.StatusBadRequest, "<= 10000"},
		{"devices above cap", `{"model":"alexnet","batch":1,"devices":100000}`, http.StatusBadRequest, "<= 64"},
		{"devices one above cap", `{"model":"alexnet","batch":1,"devices":65}`, http.StatusBadRequest, "<= 64"},
		{"batch above cap", `{"model":"alexnet","batch":100000}`, http.StatusBadRequest, "<= 4096"},
		{"batch one above cap", `{"model":"alexnet","batch":4097}`, http.StatusBadRequest, "<= 4096"},
		{"memory above cap", `{"model":"alexnet","batch":8,"memGiB":1e300}`, http.StatusBadRequest, "4096 GiB"},
		{"memory below one byte", `{"model":"alexnet","batch":8,"memGiB":1e-12}`, http.StatusBadRequest, "1 byte"},
		{"memory below a pool", `{"model":"alexnet","batch":8,"memGiB":1e-8}`, http.StatusBadRequest, "256 bytes"},
		{"host memory above cap", `{"model":"alexnet","batch":8,"hostMemGiB":1e12}`, http.StatusBadRequest, "4096 GiB"},
		{"unknown allocator", `{"model":"resnet50","batch":8,"allocator":"bogus"}`, http.StatusBadRequest, "allocator"},
		{"allocator in upper case", `{"model":"resnet50","batch":8,"allocator":"BFC"}`, http.StatusBadRequest, "allocator"},
		{"unknown schedule", `{"model":"resnet50","batch":8,"schedule":"bogus"}`, http.StatusBadRequest, "schedule kind"},
		{"seq schedule without a sequence axis", `{"model":"resnet50","batch":8,"schedule":"seq"}`, http.StatusBadRequest, "sequence axis"},
		{"schedule on vdnn", `{"model":"resnet50","batch":8,"system":"vdnn","schedule":"batch"}`, http.StatusBadRequest, "one graph"},
		{"schedule on dtr", `{"model":"resnet50","batch":8,"system":"dtr","schedule":"batch"}`, http.StatusBadRequest, "one graph"},
		{"schedule on chunk", `{"model":"resnet50","batch":8,"system":"chunk","schedule":"batch"}`, http.StatusBadRequest, "one graph"},
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: got %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
		if tc.msg != "" {
			var e struct{ Error string }
			if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, tc.msg) {
				t.Errorf("%s: body %s does not name the limit %q", tc.name, body, tc.msg)
			}
		}
	}
	if got := s.Snapshot().StoredRuns; got != 1 {
		t.Errorf("stored runs = %d, want only the valid one", got)
	}
	if code, _ := getBody(t, ts.Client(), ts.URL+"/v1/runs/ffffffffffffffff"); code != http.StatusNotFound {
		t.Errorf("unknown ID: got %d, want 404", code)
	}
	_, err := RunRequest{Model: "resnet50", Batch: 8, Schedule: "batch", Devices: 2}.ToRunConfig()
	if !errors.Is(err, bench.ErrDynamicCluster) {
		t.Errorf("dynamic cluster request: err=%v, want bench.ErrDynamicCluster", err)
	}
}

// blockingServer builds a server whose worker pool parks each run on
// release until the test lets it go; entered signals one token per run
// reaching a worker.
func blockingServer(t *testing.T, cfg Config) (*Server, chan struct{}, chan struct{}) {
	t.Helper()
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	s := NewServer(cfg)
	s.beforeRun = func(*runEntry) {
		entered <- struct{}{}
		<-release
	}
	return s, entered, release
}

// distinctRequests returns n cells with distinct cache keys.
func distinctRequests(n int) []RunRequest {
	out := make([]RunRequest, n)
	for i := range out {
		rr := testRequest()
		rr.Batch = int64(2 + i)
		out[i] = rr
	}
	return out
}

// TestBackpressureShed: with one worker parked and the queue full, the
// next distinct submission is shed with 429 + Retry-After, while a
// duplicate of an accepted run still dedupes.
func TestBackpressureShed(t *testing.T) {
	s, entered, release := blockingServer(t, Config{Workers: 1, QueueDepth: 1})
	defer s.Close()      // LIFO: release the parked worker first,
	defer close(release) // then close the server.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	reqs := distinctRequests(3)

	respA, repA := postRun(t, ts.Client(), ts.URL, reqs[0])
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("A: got %d", respA.StatusCode)
	}
	<-entered // A is on the worker: the queue is empty again
	respB, _ := postRun(t, ts.Client(), ts.URL, reqs[1])
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("B: got %d", respB.StatusCode)
	}
	respC, _ := postRun(t, ts.Client(), ts.URL, reqs[2])
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("C: got %d, want 429", respC.StatusCode)
	}
	if respC.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Duplicates are never shed: they are not new work.
	respDup, repDup := postRun(t, ts.Client(), ts.URL, reqs[0])
	if respDup.StatusCode != http.StatusOK || !repDup.Deduped || repDup.ID != repA.ID {
		t.Errorf("dup under load: %d %+v", respDup.StatusCode, repDup)
	}
	if got := s.Snapshot().Shed; got != 1 {
		t.Errorf("shed=%d, want 1", got)
	}
}

// TestDrainCompletesInFlight is the graceful-shutdown contract: once a
// drain begins, new submissions get 503 and readiness flips, but every
// already-accepted run — running or still queued — completes with a
// fetchable result. Zero accepted runs are dropped.
func TestDrainCompletesInFlight(t *testing.T) {
	s, entered, release := blockingServer(t, Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	reqs := distinctRequests(3)

	_, repA := postRun(t, ts.Client(), ts.URL, reqs[0])
	<-entered // A running (parked on release)
	_, repB := postRun(t, ts.Client(), ts.URL, reqs[1])

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(t.Context()) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	if code, _ := getBody(t, ts.Client(), ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: got %d, want 503", code)
	}
	respC, _ := postRun(t, ts.Client(), ts.URL, reqs[2])
	if respC.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: got %d, want 503", respC.StatusCode)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{repA.ID, repB.ID} {
		code, body := getBody(t, ts.Client(), ts.URL+"/v1/runs/"+id)
		if code != http.StatusOK {
			t.Fatalf("post-drain result %s: got %d", id, code)
		}
		var wire resultWire
		if err := json.Unmarshal(body, &wire); err != nil || !wire.OK {
			t.Errorf("post-drain run %s not OK: %s", id, body)
		}
	}
	if st := s.Snapshot(); st.Completed != 2 || st.Failed != 0 || st.Queued != 0 {
		t.Errorf("post-drain stats: %+v", st)
	}
}

// TestCloseAbandonsQueued: Close unblocks waiters on never-started runs
// with failed, aborted results instead of leaving them hanging.
func TestCloseAbandonsQueued(t *testing.T) {
	s, entered, release := blockingServer(t, Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	reqs := distinctRequests(2)

	postRun(t, ts.Client(), ts.URL, reqs[0])
	<-entered
	_, repB := postRun(t, ts.Client(), ts.URL, reqs[1]) // queued, never starts

	done := make(chan struct{})
	go func() { close(release); s.Close(); close(done) }()
	<-done
	code, body := getBody(t, ts.Client(), ts.URL+"/v1/runs/"+repB.ID)
	if code != http.StatusOK {
		t.Fatalf("abandoned run result: got %d", code)
	}
	var wire resultWire
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.OK || !strings.Contains(wire.Error, "abandoned") {
		t.Errorf("abandoned run: %s", body)
	}
}

// TestEventsStream: /events serves the JSON lines a JSONLTracer writes
// for a direct traced run of the same config — here a capuchin run under
// a tight cap, so decisions interleave with events — and the SSE variant
// frames each line as a data event ending with event: done. Readers
// attached while the run is parked before its first record follow it
// live and receive the same bytes as reads made after completion.
func TestEventsStream(t *testing.T) {
	rr := RunRequest{Model: "resnet50", Batch: 32, System: "capuchin", Iterations: 3, MemGiB: 2}
	cfg, err := rr.ToRunConfig()
	if err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	tr := obs.NewJSONLTracer(&jsonl)
	if res := bench.RunTraced(bench.CanonicalConfig(cfg), tr); !res.OK || tr.Err() != nil {
		t.Fatalf("direct traced run: ok=%v err=%v tracer=%v", res.OK, res.Err, tr.Err())
	}
	if !bytes.Contains(jsonl.Bytes(), []byte(`"type":"decision"`)) {
		t.Fatal("the run audits no decisions; pick a tighter cap")
	}
	sse := "data: " + strings.ReplaceAll(strings.TrimSuffix(jsonl.String(), "\n"), "\n", "\n\ndata: ") +
		"\n\nevent: done\ndata: {}\n\n"
	want := []string{jsonl.String(), sse}

	s, entered, release := blockingServer(t, testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, rep := postRun(t, ts.Client(), ts.URL, rr)
	<-entered // on a worker, nothing recorded yet
	urls := []string{ts.URL + "/v1/runs/" + rep.ID + "/events", ts.URL + "/v1/runs/" + rep.ID + "/events?sse=1"}
	var live []*http.Response
	for _, u := range urls {
		resp, err := ts.Client().Get(u) // returns once the handler's first pass flushed the headers
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		live = append(live, resp)
	}
	close(release)
	for i, resp := range live {
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		_, after := getBody(t, ts.Client(), urls[i])
		if string(got) != want[i] || string(after) != want[i] {
			t.Errorf("%s: live read %d bytes, read after completion %d, JSONLTracer reference %d",
				urls[i], len(got), len(after), len(want[i]))
		}
	}
}

// discard is a tracer that drops every record. Teed with a Collector it
// makes a run simulate every iteration.
type discard struct{}

func (discard) Emit(obs.Event)      {}
func (discard) Decide(obs.Decision) {}

// TestMenuEndpointsMatchDirectRuns: for every config of the loadgen menu
// the selftest drives, the server's result equals a direct bench.Run's,
// and its /events and /trace bodies equal the JSONL and Chrome trace of
// a direct bench.RunTraced whose tracer makes it simulate every
// iteration. The server's Collector repeats the records of the
// iterations its runs skip, so this proves the repeat exact end to end.
func TestMenuEndpointsMatchDirectRuns(t *testing.T) {
	s := NewServer(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	seen := make(map[loadgen.RunRequest]bool)
	for _, m := range loadgen.Menu(1, 16) {
		if seen[m] {
			continue
		}
		seen[m] = true
		rr := RunRequest{Model: m.Model, Batch: m.Batch, System: m.System, Iterations: m.Iterations, MemGiB: m.MemGiB}
		cfg, err := rr.ToRunConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfg = bench.CanonicalConfig(cfg)
		wantResult, err := EncodeResult(bench.Run(cfg))
		if err != nil {
			t.Fatal(err)
		}
		ref := obs.NewCollector()
		bench.RunTraced(cfg, obs.Tee(ref, discard{}))
		wantEvents, _, _ := ref.AppendJSONL(nil, obs.Cursor{})
		var wantTrace bytes.Buffer
		if err := obs.WriteChromeTrace(&wantTrace, ref.Events()); err != nil {
			t.Fatal(err)
		}

		_, rep := postRun(t, ts.Client(), ts.URL, rr)
		run := ts.URL + "/v1/runs/" + rep.ID
		for _, c := range []struct {
			url  string
			want []byte
		}{
			{run + "?wait=1", wantResult},
			{run + "/events", wantEvents},
			{run + "/trace?wait=1", wantTrace.Bytes()},
		} {
			if code, got := getBody(t, ts.Client(), c.url); code != http.StatusOK || !bytes.Equal(got, c.want) {
				t.Errorf("%s/b%d/%s: %s answered %d with %d bytes, the direct run gives %d",
					m.Model, m.Batch, m.System, strings.TrimPrefix(c.url, ts.URL), code, len(got), len(c.want))
			}
		}
	}
}

// TestTraceEndpoint: a completed run serves a valid Chrome trace.
func TestTraceEndpoint(t *testing.T) {
	s := NewServer(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, rep := postRun(t, ts.Client(), ts.URL, testRequest())
	code, body := getBody(t, ts.Client(), ts.URL+"/v1/runs/"+rep.ID+"/trace?wait=1")
	if code != http.StatusOK {
		t.Fatalf("trace: got %d", code)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
}

// TestObservabilityEndpoints: healthz, stats and the Prometheus
// exposition.
func TestObservabilityEndpoints(t *testing.T) {
	s := NewServer(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body := getBody(t, ts.Client(), ts.URL+"/healthz"); code != 200 || string(body) != "ok\n" {
		t.Errorf("healthz: %d %q", code, body)
	}
	if code, _ := getBody(t, ts.Client(), ts.URL+"/readyz"); code != 200 {
		t.Errorf("readyz: %d", code)
	}

	_, rep := postRun(t, ts.Client(), ts.URL, testRequest())
	if code, _ := getBody(t, ts.Client(), ts.URL+"/v1/runs/"+rep.ID+"?wait=1"); code != 200 {
		t.Fatal("run did not complete")
	}

	code, body := getBody(t, ts.Client(), ts.URL+"/v1/stats")
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 1 || st.Completed != 1 || st.Workers != 2 {
		t.Errorf("stats: %+v", st)
	}

	code, body = getBody(t, ts.Client(), ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{"capuchin_serve_admitted_total 1", "capuchin_serve_completed_total 1", "capuchin_serve_run_latency_seconds_count"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestStoreBytes: untraced runs retain no event log, so storeBytes
// stays 0 however many runs are stored; one /events fetch traces one run
// and storeBytes grows by exactly its Collector's Bytes, which equal a
// direct traced run's.
func TestStoreBytes(t *testing.T) {
	s := NewServer(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stats := func() Stats {
		t.Helper()
		code, body := getBody(t, ts.Client(), ts.URL+"/v1/stats")
		var st Stats
		if err := json.Unmarshal(body, &st); code != http.StatusOK || err != nil {
			t.Fatalf("stats: %d %v", code, err)
		}
		return st
	}
	reqs := distinctRequests(3)
	var ids []string
	for i, rr := range reqs {
		_, rep := postRun(t, ts.Client(), ts.URL, rr)
		if code, _ := getBody(t, ts.Client(), ts.URL+"/v1/runs/"+rep.ID+"?wait=1"); code != http.StatusOK {
			t.Fatalf("run %d did not complete: %d", i, code)
		}
		ids = append(ids, rep.ID)
	}
	if st := stats(); st.StoredRuns != 3 || st.TracedRuns != 0 || st.StoreBytes != 0 {
		t.Fatalf("after three untraced runs: storedRuns=%d tracedRuns=%d storeBytes=%d, want 3/0/0",
			st.StoredRuns, st.TracedRuns, st.StoreBytes)
	}

	if code, _ := getBody(t, ts.Client(), ts.URL+"/v1/runs/"+ids[0]+"/events"); code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	e, _ := s.lookup(ids[0])
	cfg, err := reqs[0].ToRunConfig()
	if err != nil {
		t.Fatal(err)
	}
	ref := obs.NewCollector()
	bench.RunTraced(bench.CanonicalConfig(cfg), ref)
	st := stats()
	if got := e.trace.Load().col.Bytes(); st.TracedRuns != 1 || st.StoreBytes != got || got != ref.Bytes() {
		t.Fatalf("after one /events fetch: tracedRuns=%d storeBytes=%d, want 1 and the Collector's %d bytes (a direct traced run's: %d)",
			st.TracedRuns, st.StoreBytes, got, ref.Bytes())
	}
}

// TestStoreShardingAndIDs: run IDs are a stable hash of the canonical
// config, and the store finds exactly the runs filed in it.
func TestStoreShardingAndIDs(t *testing.T) {
	s := NewServer(testConfig())
	defer s.Close()
	cfgA := bench.CanonicalConfig(bench.RunConfig{Model: "resnet50", Batch: 8, System: bench.SystemTF})
	cfgB := bench.CanonicalConfig(bench.RunConfig{Model: "resnet50", Batch: 16, System: bench.SystemTF})
	if runID(cfgA) != runID(cfgA) || runID(cfgA) == runID(cfgB) {
		t.Fatalf("runID not a stable injective-ish hash: %s vs %s", runID(cfgA), runID(cfgB))
	}
	e := newRunEntry(runID(cfgA), cfgA)
	s.mu.Lock()
	s.runs[e.id] = e
	s.mu.Unlock()
	if got, ok := s.lookup(runID(cfgA)); !ok || got != e {
		t.Error("lookup missed a stored entry")
	}
	if _, ok := s.lookup(runID(cfgB)); ok {
		t.Error("lookup matched a different config's ID")
	}
	if _, ok := s.lookup("no-such-id"); ok {
		t.Error("lookup matched an absent ID")
	}
	if n := s.Snapshot().StoredRuns; n != 1 {
		t.Errorf("stored runs=%d, want 1", n)
	}
}

// TestEventHub: the log the trace path hands a reader is the hub
// /events follows. A trace requested while the run is queued is
// recorded by the run itself: before it begins, the log hands a reader
// no bytes and a wake channel; a reader following the run through the
// wake channel and the log's end, as handleEvents does, receives every
// record in emission order, and a replay from the start after completion
// matches it byte for byte.
func TestEventHub(t *testing.T) {
	s := NewServer(testConfig())
	defer s.Close()
	e := newRunEntry("0000000000000000", bench.RunConfig{})
	tr, err := s.traceOf(e)
	if err != nil {
		t.Fatal(err)
	}
	chunk, _, wake := tr.col.AppendJSONL(nil, obs.Cursor{})
	if chunk != nil || wake == nil || tr.ended() {
		t.Fatalf("empty open hub: chunk=%q wake=%v ended=%v", chunk, wake, tr.ended())
	}

	var want bytes.Buffer
	ref := obs.NewJSONLTracer(&want)
	records := func(tr obs.Tracer) {
		tr.Emit(obs.Event{Kind: obs.KindSpan, Cat: "kernel", Name: "conv1", Lane: "compute", Start: 0, End: 5})
		tr.Decide(obs.Decision{Tensor: "conv1:0", Action: "swap-out", Bytes: 1 << 20, Reason: "test"})
		tr.Emit(obs.Event{Kind: obs.KindInstant, Cat: "access", Name: "read conv1:0", Start: 7, End: 7})
	}
	records(ref)
	go func() {
		records(e.begin())
		e.complete(bench.Result{})
	}()

	var (
		got []byte
		cur obs.Cursor
	)
	for {
		done := tr.ended()
		got, cur, wake = tr.col.AppendJSONL(got, cur)
		if done {
			break
		}
		select {
		case <-wake:
		case <-tr.done:
		}
	}
	if string(got) != want.String() {
		t.Errorf("streamed %q, want %q", got, want.String())
	}
	if replay, _, _ := tr.col.AppendJSONL(nil, obs.Cursor{}); string(replay) != string(got) {
		t.Error("replay from the start differs from the streamed bytes")
	}
}

// TestIDCollisionGuard: a stored entry whose config does not match the
// submitted key is surfaced as a 500, never as a silent wrong result.
func TestIDCollisionGuard(t *testing.T) {
	s := NewServer(testConfig())
	defer s.Close()
	cfgA := bench.CanonicalConfig(bench.RunConfig{Model: "resnet50", Batch: 8, System: bench.SystemTF})
	cfgB := bench.CanonicalConfig(bench.RunConfig{Model: "resnet50", Batch: 16, System: bench.SystemTF})
	// Forge a collision: file cfgA's entry under cfgB's ID.
	s.mu.Lock()
	s.runs[runID(cfgB)] = newRunEntry(runID(cfgB), cfgA)
	s.mu.Unlock()
	if _, _, err := s.admit(cfgB); !errors.Is(err, errIDCollision) {
		t.Errorf("collision admit: err=%v, want errIDCollision", err)
	}
}

// TestRunPanicRecovered: a run that panics completes as a failed result
// carrying the panic, counts as failed, and leaves its worker serving
// the next submission.
func TestRunPanicRecovered(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	var runs atomic.Int32
	s.beforeRun = func(*runEntry) {
		if runs.Add(1) == 1 {
			panic("injected")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	reqs := distinctRequests(2)

	_, repA := postRun(t, ts.Client(), ts.URL, reqs[0])
	code, body := getBody(t, ts.Client(), ts.URL+"/v1/runs/"+repA.ID+"?wait=1")
	if code != http.StatusOK {
		t.Fatalf("panicked run result: got %d", code)
	}
	var wire resultWire
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.OK || !strings.Contains(wire.Error, "panicked") {
		t.Errorf("panicked run: %s", body)
	}
	if got := s.metrics.Counter("serve/failed"); got != 1 {
		t.Errorf("serve/failed=%d, want 1", got)
	}

	_, repB := postRun(t, ts.Client(), ts.URL, reqs[1])
	code, body = getBody(t, ts.Client(), ts.URL+"/v1/runs/"+repB.ID+"?wait=1")
	if err := json.Unmarshal(body, &wire); code != http.StatusOK || err != nil || !wire.OK {
		t.Errorf("run after the panic: %d %s", code, body)
	}
}
