package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"capuchin/internal/bench"
	"capuchin/internal/serve/loadgen"
)

// The serve selftest: a closed-loop load run against a live server plus
// a deterministic backpressure-and-drain scenario, emitted as
// BENCH_serve.json. Two phases because the two claims need opposite
// conditions: throughput and latency want a big concurrent fleet, while
// "the queue sheds at exactly depth" and "a drain drops zero accepted
// runs" want a one-worker server whose queue state the harness controls
// exactly.

// SelfTestOptions configures the selftest.
type SelfTestOptions struct {
	// Clients is the load-phase fleet size; 0 means 1000 (the floor the
	// regression gate enforces for non-quick artifacts).
	Clients int
	// Requests is the load-phase request budget; 0 means 3 x Clients.
	Requests int
	// Seed governs the workload menu; 0 means 1.
	Seed uint64
	// Workers sizes the primary server's pool; 0 means GOMAXPROCS.
	Workers int
	// Quick trims the fleet for CI smoke (64 clients unless Clients is
	// set) and records itself in the artifact's meta block.
	Quick bool
	// MetaDate optionally stamps meta.date (YYYY-MM-DD).
	MetaDate string
}

// DrainReport is the deterministic drain scenario's outcome.
type DrainReport struct {
	// InFlightAtDrain is how many accepted runs (running + queued) the
	// drain began with; CompletedAfterDrain is how many of them finished
	// with a fetchable OK result. Dropped is their difference — the
	// number the acceptance criteria require to be zero.
	InFlightAtDrain     int `json:"inFlightAtDrain"`
	CompletedAfterDrain int `json:"completedAfterDrain"`
	Dropped             int `json:"dropped"`
	// RejectedDuringDrain counts submissions answered 503 mid-drain.
	RejectedDuringDrain int `json:"rejectedDuringDrain"`
	// ShedObserved records that the full queue answered 429 before the
	// drain began.
	ShedObserved bool `json:"shedObserved"`
	// DrainMillis is the wall time from drain start to completion.
	DrainMillis float64 `json:"drainMillis"`
}

// ByteIdentity records the serve-vs-direct result comparison.
type ByteIdentity struct {
	// Config labels the compared cell (menu notation).
	Config string `json:"config"`
	// Identical is true when the HTTP result body equals EncodeResult of
	// a direct bench.Run of the same canonical config, byte for byte.
	Identical bool `json:"identical"`
}

// ServeBench is the BENCH_serve.json artifact.
type ServeBench struct {
	Meta         bench.RunMeta  `json:"meta"`
	Load         loadgen.Report `json:"load"`
	ByteIdentity ByteIdentity   `json:"byte_identity"`
	Drain        DrainReport    `json:"drain"`
}

// WriteJSON renders the artifact with a trailing newline.
func (b ServeBench) WriteJSON(w io.Writer) error {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}

// startLocal serves s on an ephemeral loopback port and returns the
// base URL plus a stop function that shuts the listener down (the
// server itself is the caller's to drain or close).
func startLocal(s *Server) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() { hs.Close() }, nil
}

// SelfTest runs both phases and assembles the artifact. A non-nil error
// means the harness failed or an invariant the artifact cannot express
// was violated; gate-visible degradations (shed rates, latency, drops)
// are recorded in the artifact for bench.Regress's serve gate to judge.
func SelfTest(o SelfTestOptions) (ServeBench, error) {
	if o.Clients <= 0 {
		if o.Quick {
			o.Clients = 64
		} else {
			o.Clients = 1000
		}
	}
	if o.Requests <= 0 {
		o.Requests = 3 * o.Clients
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	art := ServeBench{
		Meta: bench.NewRunMeta("capuchin-serve -selftest", o.Seed, o.Quick,
			"clients="+strconv.Itoa(o.Clients),
			"requests="+strconv.Itoa(o.Requests),
		),
	}
	if o.MetaDate != "" {
		art.Meta = art.Meta.WithDate(o.MetaDate)
	}

	load, ident, err := selfTestLoad(o)
	if err != nil {
		return art, err
	}
	art.Load, art.ByteIdentity = load, ident

	drain, err := selfTestDrain()
	if err != nil {
		return art, err
	}
	art.Drain = drain
	return art, nil
}

// selfTestLoad is the throughput phase: a fleet of closed-loop clients
// against a production-shaped server, then the byte-identity probe.
func selfTestLoad(o SelfTestOptions) (loadgen.Report, ByteIdentity, error) {
	s := NewServer(Config{Workers: o.Workers, QueueDepth: 2 * o.Clients})
	base, stop, err := startLocal(s)
	if err != nil {
		return loadgen.Report{}, ByteIdentity{}, err
	}
	defer stop()
	defer s.Close()

	load, err := loadgen.Run(loadgen.Options{
		BaseURL:  base,
		Clients:  o.Clients,
		Requests: o.Requests,
		Seed:     o.Seed,
	})
	if err != nil {
		return load, ByteIdentity{}, fmt.Errorf("serve: load phase: %w", err)
	}

	// Byte-identity probe: re-fetch the menu's first cell over HTTP and
	// compare against a direct in-process run of the same canonical
	// config.
	probe := loadgen.Menu(o.Seed, 1)[0]
	rr := RunRequest{Model: probe.Model, Batch: probe.Batch, System: probe.System,
		Iterations: probe.Iterations, MemGiB: probe.MemGiB}
	ident := ByteIdentity{Config: fmt.Sprintf("%s/b%d/%s", rr.Model, rr.Batch, rr.System)}
	cfg, err := rr.ToRunConfig()
	if err != nil {
		return load, ident, err
	}
	body, _ := json.Marshal(rr)
	resp, err := http.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return load, ident, err
	}
	var sr submitReply
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		resp.Body.Close()
		return load, ident, err
	}
	resp.Body.Close()
	res, err := http.Get(base + "/v1/runs/" + sr.ID + "?wait=1")
	if err != nil {
		return load, ident, err
	}
	served, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil || res.StatusCode != http.StatusOK {
		return load, ident, fmt.Errorf("serve: byte-identity fetch: status %d, %v", res.StatusCode, err)
	}
	direct, err := EncodeResult(bench.Run(bench.CanonicalConfig(cfg)))
	if err != nil {
		return load, ident, err
	}
	ident.Identical = bytes.Equal(served, direct)
	return load, ident, nil
}

// selfTestDrain is the deterministic scenario: one worker, queue depth
// one, the worker parked under harness control — so queue occupancy,
// the 429, the mid-drain 503 and the zero-drop drain are all exact.
func selfTestDrain() (DrainReport, error) {
	var rep DrainReport
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	s := NewServer(Config{Workers: 1, QueueDepth: 1, Jobs: 1})
	s.beforeRun = func(*runEntry) {
		entered <- struct{}{}
		<-release
	}
	base, stop, err := startLocal(s)
	if err != nil {
		return rep, err
	}
	defer stop()

	submit := func(batch int64) (int, string, error) {
		body, _ := json.Marshal(RunRequest{Model: "resnet50", Batch: batch,
			System: "tf-ori", Iterations: 2, MemGiB: 2})
		resp, err := http.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		var sr submitReply
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				return resp.StatusCode, "", err
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return resp.StatusCode, sr.ID, nil
	}

	// A runs (parked), B queues: the queue is now full.
	codeA, idA, err := submit(2)
	if err != nil {
		return rep, err
	}
	<-entered
	codeB, idB, err := submit(4)
	if err != nil {
		return rep, err
	}
	if codeA != http.StatusAccepted || codeB != http.StatusAccepted {
		return rep, fmt.Errorf("serve: drain setup: submits answered %d/%d", codeA, codeB)
	}
	rep.InFlightAtDrain = 2
	// C must shed: depth-1 queue already holds B.
	codeC, _, err := submit(8)
	if err != nil {
		return rep, err
	}
	rep.ShedObserved = codeC == http.StatusTooManyRequests

	drainStart := time.Now()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for !s.Draining() {
		time.Sleep(100 * time.Microsecond)
	}
	// D must be rejected: the server is draining.
	codeD, _, err := submit(16)
	if err != nil {
		return rep, err
	}
	if codeD == http.StatusServiceUnavailable {
		rep.RejectedDuringDrain = 1
	}
	close(release)
	if err := <-drained; err != nil {
		return rep, fmt.Errorf("serve: drain: %w", err)
	}
	rep.DrainMillis = float64(time.Since(drainStart)) / float64(time.Millisecond)

	for _, id := range []string{idA, idB} {
		resp, err := http.Get(base + "/v1/runs/" + id)
		if err != nil {
			return rep, err
		}
		var wire resultWire
		decodeErr := json.NewDecoder(resp.Body).Decode(&wire)
		resp.Body.Close()
		if decodeErr == nil && resp.StatusCode == http.StatusOK && wire.OK {
			rep.CompletedAfterDrain++
		}
	}
	rep.Dropped = rep.InFlightAtDrain - rep.CompletedAfterDrain
	return rep, nil
}
