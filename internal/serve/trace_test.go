package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capuchin/internal/bench"
	"capuchin/internal/obs"
)

// gatedServer builds a server whose beforeRun counts simulations, runs
// and trace jobs alike, and parks every one after the first free on
// release; entered receives one token per parked simulation.
func gatedServer(t *testing.T, cfg Config, free int32) (s *Server, sims *atomic.Int32, entered, release chan struct{}) {
	t.Helper()
	s = NewServer(cfg)
	sims = new(atomic.Int32)
	entered = make(chan struct{}, 16)
	release = make(chan struct{})
	s.beforeRun = func(*runEntry) {
		if sims.Add(1) > free {
			entered <- struct{}{}
			<-release
		}
	}
	return s, sims, entered, release
}

// traceReference runs rr directly with a tracer that makes it simulate
// every iteration and returns its JSONL and Chrome trace bytes.
func traceReference(t *testing.T, rr RunRequest) (jsonl, chrome []byte) {
	t.Helper()
	cfg, err := rr.ToRunConfig()
	if err != nil {
		t.Fatal(err)
	}
	var buf, trace bytes.Buffer
	col := obs.NewCollector()
	bench.RunTraced(bench.CanonicalConfig(cfg), obs.Tee(col, obs.NewJSONLTracer(&buf)))
	if err := obs.WriteChromeTrace(&trace, col.Events()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), trace.Bytes()
}

// openStream starts a GET and returns once the handler has sent the
// headers.
func openStream(t *testing.T, client *http.Client, url string) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func waitResult(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	if code, body := getBody(t, ts.Client(), ts.URL+"/v1/runs/"+id+"?wait=1"); code != http.StatusOK {
		t.Fatalf("run %s: %d %s", id, code, body)
	}
}

// TestTraceOnDemand: runs are simulated untraced, and a run's event log
// is recorded only when /events or /trace asks for it — by the run
// itself if it is still queued, else by one trace job on the worker
// pool, admitted like a run. Either way the log is byte-equal to a fully
// simulated direct run's.
func TestTraceOnDemand(t *testing.T) {
	rr := testRequest()
	wantJSONL, wantChrome := traceReference(t, rr)

	t.Run("queued run upgraded", func(t *testing.T) {
		capRR := RunRequest{Model: "resnet50", Batch: 32, System: "capuchin", Iterations: 3, MemGiB: 2}
		want, _ := traceReference(t, capRR)
		s, sims, entered, release := gatedServer(t, testConfig(), 0)
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		_, rep := postRun(t, ts.Client(), ts.URL, capRR)
		<-entered // dequeued, not begun: still queued
		resp := openStream(t, ts.Client(), ts.URL+"/v1/runs/"+rep.ID+"/events")
		close(release)
		if got := readAll(t, resp); !bytes.Equal(got, want) {
			t.Errorf("live stream: %d bytes, the direct run gives %d", len(got), len(want))
		}
		waitResult(t, ts, rep.ID)
		if n := sims.Load(); n != 1 {
			t.Errorf("%d simulations, want 1: the run records its own log", n)
		}
		if n := s.metrics.Counter("serve/traces"); n != 0 {
			t.Errorf("serve/traces=%d, want 0", n)
		}
	})

	t.Run("trace job after untraced completion", func(t *testing.T) {
		s, sims, _, _ := gatedServer(t, testConfig(), 1<<30)
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		_, rep := postRun(t, ts.Client(), ts.URL, rr)
		waitResult(t, ts, rep.ID)
		if st := s.Snapshot(); st.TracedRuns != 0 || st.StoreBytes != 0 {
			t.Errorf("untraced run retains a log: %+v", st)
		}
		run := ts.URL + "/v1/runs/" + rep.ID
		if code, got := getBody(t, ts.Client(), run+"/events"); code != http.StatusOK || !bytes.Equal(got, wantJSONL) {
			t.Errorf("/events: %d with %d bytes, the direct run gives %d", code, len(got), len(wantJSONL))
		}
		if code, got := getBody(t, ts.Client(), run+"/trace?wait=1"); code != http.StatusOK || !bytes.Equal(got, wantChrome) {
			t.Errorf("/trace: %d with %d bytes, the direct run gives %d", code, len(got), len(wantChrome))
		}
		if n := sims.Load(); n != 2 {
			t.Errorf("%d simulations, want the run and one trace job", n)
		}
		if n := s.metrics.Counter("serve/traces"); n != 1 {
			t.Errorf("serve/traces=%d, want 1", n)
		}
		if st := s.Snapshot(); st.TracedRuns != 1 {
			t.Errorf("tracedRuns=%d, want 1", st.TracedRuns)
		}
		_, body := getBody(t, ts.Client(), ts.URL+"/metrics")
		if !bytes.Contains(body, []byte("capuchin_serve_traces_total 1")) {
			t.Error("metrics exposition missing capuchin_serve_traces_total 1")
		}
	})

	t.Run("concurrent readers share one job", func(t *testing.T) {
		s, sims, entered, release := gatedServer(t, testConfig(), 1)
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		_, rep := postRun(t, ts.Client(), ts.URL, rr)
		waitResult(t, ts, rep.ID)
		var wg sync.WaitGroup
		resps := make([]*http.Response, 4)
		for i := range resps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resps[i], _ = ts.Client().Get(ts.URL + "/v1/runs/" + rep.ID + "/events")
			}()
		}
		wg.Wait() // every reader has its headers: the job is pending
		<-entered
		if code, body := getBody(t, ts.Client(), ts.URL+"/v1/runs/"+rep.ID+"/trace"); code != http.StatusAccepted ||
			!bytes.Contains(body, []byte(`"status":"tracing"`)) {
			t.Errorf("/trace while the job is pending: %d %s, want 202 tracing", code, body)
		}
		close(release)
		for i, resp := range resps {
			if resp == nil {
				t.Fatalf("reader %d failed", i)
			}
			got := readAll(t, resp)
			resp.Body.Close()
			if !bytes.Equal(got, wantJSONL) {
				t.Errorf("reader %d: %d bytes, the direct run gives %d", i, len(got), len(wantJSONL))
			}
		}
		if n := sims.Load(); n != 2 {
			t.Errorf("%d simulations, want the run and one trace job", n)
		}
	})

	t.Run("abandoned run", func(t *testing.T) {
		s, sims, entered, release := gatedServer(t, Config{Workers: 1, QueueDepth: 4}, 1)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		reqs := distinctRequests(4)
		_, repD := postRun(t, ts.Client(), ts.URL, reqs[3])
		waitResult(t, ts, repD.ID)
		postRun(t, ts.Client(), ts.URL, reqs[0])
		<-entered // A parks the only worker
		_, repB := postRun(t, ts.Client(), ts.URL, reqs[1])
		_, repC := postRun(t, ts.Client(), ts.URL, reqs[2])
		live := openStream(t, ts.Client(), ts.URL+"/v1/runs/"+repB.ID+"/events") // upgrades queued B
		job := openStream(t, ts.Client(), ts.URL+"/v1/runs/"+repD.ID+"/events")  // queues a trace job for D

		closed := make(chan struct{})
		go func() { s.Close(); close(closed) }()
		for s.workerCtx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		close(release) // A finishes; B, C and D's trace job are abandoned, never started
		<-closed
		if got := readAll(t, live); len(got) != 0 {
			t.Errorf("abandoned run streamed %d bytes, want an empty log", len(got))
		}
		// C had no log: an abandoned run's is empty, with no trace job.
		if code, got := getBody(t, ts.Client(), ts.URL+"/v1/runs/"+repC.ID+"/events"); code != http.StatusOK || len(got) != 0 {
			t.Errorf("abandoned run's /events: %d with %d bytes, want 200 and none", code, len(got))
		}
		if code, _ := getBody(t, ts.Client(), ts.URL+"/v1/runs/"+repC.ID+"/trace"); code != http.StatusOK {
			t.Errorf("abandoned run's /trace: %d, want 200", code)
		}
		// D's abandoned job ends its stream and is not kept as D's log.
		if got := readAll(t, job); len(got) != 0 {
			t.Errorf("abandoned trace job streamed %d bytes", len(got))
		}
		if code, _ := getBody(t, ts.Client(), ts.URL+"/v1/runs/"+repD.ID+"/trace"); code != http.StatusServiceUnavailable {
			t.Errorf("/trace after the job was abandoned: %d, want 503", code)
		}
		if n := sims.Load(); n != 2 {
			t.Errorf("%d simulations, want only D and A", n)
		}
	})

	t.Run("panicking trace job", func(t *testing.T) {
		s := NewServer(Config{Workers: 1, QueueDepth: 4})
		defer s.Close()
		var sims atomic.Int32
		s.beforeRun = func(*runEntry) {
			if sims.Add(1) == 2 {
				panic("injected")
			}
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		reqs := distinctRequests(2)
		_, wantChrome := traceReference(t, reqs[0])
		_, repA := postRun(t, ts.Client(), ts.URL, reqs[0])
		waitResult(t, ts, repA.ID)
		run := ts.URL + "/v1/runs/" + repA.ID
		if code, got := getBody(t, ts.Client(), run+"/events"); code != http.StatusOK || len(got) != 0 {
			t.Errorf("panicked trace job: /events %d with %d bytes, want an ended empty stream", code, len(got))
		}
		if st := s.Snapshot(); st.TracedRuns != 0 {
			t.Errorf("a panicked trace job's log is kept: tracedRuns=%d", st.TracedRuns)
		}
		// The worker survived: the next request retries the job, and new
		// runs are served.
		if code, got := getBody(t, ts.Client(), run+"/trace?wait=1"); code != http.StatusOK || !bytes.Equal(got, wantChrome) {
			t.Errorf("retried /trace: %d with %d bytes, the direct run gives %d", code, len(got), len(wantChrome))
		}
		_, repB := postRun(t, ts.Client(), ts.URL, reqs[1])
		waitResult(t, ts, repB.ID)
		if n := s.metrics.Counter("serve/traces"); n != 1 {
			t.Errorf("serve/traces=%d, want 1", n)
		}
	})

	t.Run("full queue sheds", func(t *testing.T) {
		s, _, entered, release := gatedServer(t, Config{Workers: 1, QueueDepth: 1}, 1)
		defer s.Close()
		defer close(release)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		reqs := distinctRequests(3)
		_, repA := postRun(t, ts.Client(), ts.URL, reqs[0])
		waitResult(t, ts, repA.ID)
		postRun(t, ts.Client(), ts.URL, reqs[1])
		<-entered // B parks the worker
		if resp, _ := postRun(t, ts.Client(), ts.URL, reqs[2]); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("C: %d, want 202 filling the queue", resp.StatusCode)
		}
		for _, ep := range []string{"/events", "/trace"} {
			resp, err := ts.Client().Get(ts.URL + "/v1/runs/" + repA.ID + ep)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
				t.Errorf("%s with a full queue: %d Retry-After=%q, want 429 with Retry-After",
					ep, resp.StatusCode, resp.Header.Get("Retry-After"))
			}
		}
		if st := s.Snapshot(); st.TracedRuns != 0 || st.Shed != 2 {
			t.Errorf("after two shed trace requests: tracedRuns=%d shed=%d, want 0/2", st.TracedRuns, st.Shed)
		}
	})

	t.Run("draining", func(t *testing.T) {
		s, _, entered, release := gatedServer(t, Config{Workers: 1, QueueDepth: 4}, 2)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		reqs := distinctRequests(3)
		wantJSONL, _ := traceReference(t, reqs[0])
		var ids []string
		for _, r := range reqs[:2] {
			_, rep := postRun(t, ts.Client(), ts.URL, r)
			waitResult(t, ts, rep.ID)
			ids = append(ids, rep.ID)
		}
		postRun(t, ts.Client(), ts.URL, reqs[2])
		<-entered // the third run parks the worker
		// A trace job admitted before the drain is in flight: the drain
		// waits for it.
		pending := openStream(t, ts.Client(), ts.URL+"/v1/runs/"+ids[0]+"/events")
		drained := make(chan error, 1)
		go func() { drained <- s.Drain(context.Background()) }()
		for !s.Draining() {
			time.Sleep(time.Millisecond)
		}
		for _, ep := range []string{"/events", "/trace"} {
			if code, _ := getBody(t, ts.Client(), ts.URL+"/v1/runs/"+ids[1]+ep); code != http.StatusServiceUnavailable {
				t.Errorf("%s of an untraced run while draining: %d, want 503", ep, code)
			}
		}
		close(release)
		if err := <-drained; err != nil {
			t.Fatal(err)
		}
		if n := s.metrics.Counter("serve/traces"); n != 1 {
			t.Errorf("drain returned with serve/traces=%d, want the pending job done", n)
		}
		if got := readAll(t, pending); !bytes.Equal(got, wantJSONL) {
			t.Errorf("stream across the drain: %d bytes, the direct run gives %d", len(got), len(wantJSONL))
		}
	})
}
