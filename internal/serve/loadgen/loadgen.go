// Package loadgen is the closed-loop load generator behind
// capuchin-serve -selftest: a seeded fleet of concurrent clients that
// submit runs from a deterministic workload menu, long-poll for the
// results, and report throughput, latency percentiles, shed rate and
// dedup rate. Closed-loop means each client has at most one request in
// flight — offered load adapts to service rate, the standard shape for
// capacity probing — while the menu's heavy config reuse exercises the
// serve path that matters under real traffic: the single-flight cache.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// RunRequest mirrors serve.RunRequest's wire fields the generator uses;
// loadgen speaks the HTTP API only, so it does not import the server.
type RunRequest struct {
	Model      string  `json:"model"`
	Batch      int64   `json:"batch"`
	System     string  `json:"system,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	MemGiB     float64 `json:"memGiB,omitempty"`
}

// Options configures one load run.
type Options struct {
	// BaseURL is the server to drive, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Clients is the closed-loop client count; 0 means 32.
	Clients int
	// Requests is the total request budget across all clients; 0 means
	// 4 x Clients.
	Requests int
	// Seed governs the workload menu and per-request picks; 0 means 1.
	Seed uint64
	// MenuSize is the number of distinct configurations; 0 means 16.
	MenuSize int
	// MaxRetries bounds re-submission after a 429; 0 means 3. A request
	// still shed after the last retry counts toward Report.Shed.
	MaxRetries int
	// Client overrides the HTTP client; nil builds one with a connection
	// pool sized for Clients.
	Client *http.Client
}

func (o Options) fill() Options {
	if o.Clients <= 0 {
		o.Clients = 32
	}
	if o.Requests <= 0 {
		o.Requests = 4 * o.Clients
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MenuSize <= 0 {
		o.MenuSize = 16
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 3
	}
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        o.Clients + 8,
			MaxIdleConnsPerHost: o.Clients + 8,
		}}
	}
	return o
}

// Report is the load run's outcome: the artifact's "load" block.
type Report struct {
	Clients  int      `json:"clients"`
	Requests int      `json:"requests"`
	Seed     uint64   `json:"seed"`
	Menu     []string `json:"menu"`

	Total  int64 `json:"total"`
	OK     int64 `json:"ok"`
	Shed   int64 `json:"shed"`
	Errors int64 `json:"errors"`
	// Retries counts 429s that were retried (and so are not in Shed).
	Retries int64 `json:"retries"`
	// Accepted counts 202 submissions (new work); Deduped counts 200s.
	Accepted int64 `json:"accepted"`
	Deduped  int64 `json:"deduped"`

	DurationMillis float64 `json:"durationMillis"`
	RPS            float64 `json:"rps"`
	P50Millis      float64 `json:"p50Millis"`
	P99Millis      float64 `json:"p99Millis"`
	MaxMillis      float64 `json:"maxMillis"`

	ShedRatePct  float64 `json:"shedRatePct"`
	DedupRatePct float64 `json:"dedupRatePct"`
}

// DrainReport is the outcome of capuchin-serve -selftest's deterministic
// drain scenario: the artifact's "drain" block.
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

// ByteIdentity records the selftest's serve-vs-direct result
// comparison: the artifact's "byte_identity" block.
type ByteIdentity struct {
	// Config labels the compared cell (menu notation).
	Config string `json:"config"`
	// Identical is true when the HTTP result body equals EncodeResult of
	// a direct bench.Run of the same canonical config, byte for byte.
	Identical bool `json:"identical"`
}

// splitmix64 is the SplitMix64 finalizer; seeded menu and pick
// sequences derive from it so a load run is reproducible bit-for-bit.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Fast, registered models and small batches: cells that simulate in
// milliseconds so the load test measures the serving layer, not the
// simulator.
var (
	menuModels  = []string{"resnet50", "alexnet", "mobilenetv2", "lstm"}
	menuBatches = []int64{2, 4, 8, 16}
	menuSystems = []string{"tf-ori", "capuchin"}
)

// Menu derives the deterministic workload menu for a seed.
func Menu(seed uint64, size int) []RunRequest {
	menu := make([]RunRequest, size)
	for i := range menu {
		bits := splitmix64(seed + uint64(i)*0x9e3779b97f4a7c15)
		menu[i] = RunRequest{
			Model:      menuModels[bits%uint64(len(menuModels))],
			Batch:      menuBatches[(bits>>8)%uint64(len(menuBatches))],
			System:     menuSystems[(bits>>16)%uint64(len(menuSystems))],
			Iterations: 2,
			MemGiB:     2,
		}
	}
	return menu
}

func menuLabel(rr RunRequest) string {
	return fmt.Sprintf("%s/b%d/%s", rr.Model, rr.Batch, rr.System)
}

type submitReply struct {
	ID      string `json:"id"`
	Status  string `json:"status"`
	Deduped bool   `json:"deduped"`
}

// Run drives the server at o.BaseURL with o.Clients closed-loop clients
// until o.Requests requests have resolved, and reports the aggregate.
// A non-nil error means the harness itself failed (unreachable server,
// malformed reply); per-request failures land in Report.Errors instead.
func Run(o Options) (Report, error) {
	o = o.fill()
	menu := Menu(o.Seed, o.MenuSize)
	rep := Report{Clients: o.Clients, Requests: o.Requests, Seed: o.Seed}
	for _, rr := range menu {
		rep.Menu = append(rep.Menu, menuLabel(rr))
	}
	bodies := make([][]byte, len(menu))
	for i, rr := range menu {
		b, err := json.Marshal(rr)
		if err != nil {
			return rep, err
		}
		bodies[i] = b
	}

	var (
		next      atomic.Int64
		ok        atomic.Int64
		shed      atomic.Int64
		errs      atomic.Int64
		retries   atomic.Int64
		accepted  atomic.Int64
		deduped   atomic.Int64
		harnessMu sync.Mutex
		harness   error
	)
	fail := func(err error) {
		harnessMu.Lock()
		if harness == nil {
			harness = err
		}
		harnessMu.Unlock()
	}
	latencies := make([][]float64, o.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(o.Requests) {
					return
				}
				pick := int(splitmix64(o.Seed^uint64(i)*0x2545f4914f6cdd1d) % uint64(len(menu)))
				t0 := time.Now()
				var resp *http.Response
				var err error
				for attempt := 0; ; attempt++ {
					resp, err = o.Client.Post(o.BaseURL+"/v1/runs", "application/json",
						bytes.NewReader(bodies[pick]))
					if err != nil {
						fail(fmt.Errorf("loadgen: submit: %w", err))
						errs.Add(1)
						resp = nil
						break
					}
					if resp.StatusCode != http.StatusTooManyRequests {
						break
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if attempt >= o.MaxRetries {
						shed.Add(1)
						resp = nil
						break
					}
					retries.Add(1)
					// Closed-loop backoff: short and bounded, so a shed burst
					// retries into the queue draining rather than hammering it.
					time.Sleep(time.Duration(attempt+1) * time.Millisecond)
				}
				if resp == nil {
					continue
				}
				var sr submitReply
				decodeErr := json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				switch {
				case decodeErr != nil:
					fail(fmt.Errorf("loadgen: submit reply: %w", decodeErr))
					errs.Add(1)
					continue
				case resp.StatusCode == http.StatusAccepted:
					accepted.Add(1)
				case resp.StatusCode == http.StatusOK:
					deduped.Add(1)
				default:
					errs.Add(1)
					continue
				}
				res, err := o.Client.Get(o.BaseURL + "/v1/runs/" + sr.ID + "?wait=1")
				if err != nil {
					fail(fmt.Errorf("loadgen: result: %w", err))
					errs.Add(1)
					continue
				}
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
				if res.StatusCode != http.StatusOK {
					errs.Add(1)
					continue
				}
				ok.Add(1)
				latencies[c] = append(latencies[c],
					float64(time.Since(t0))/float64(time.Millisecond))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	rep.OK, rep.Shed, rep.Errors = ok.Load(), shed.Load(), errs.Load()
	rep.Total = rep.OK + rep.Shed + rep.Errors
	rep.Retries = retries.Load()
	rep.Accepted, rep.Deduped = accepted.Load(), deduped.Load()
	rep.DurationMillis = float64(wall) / float64(time.Millisecond)
	if wall > 0 {
		rep.RPS = float64(rep.OK) / wall.Seconds()
	}
	var all []float64
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Float64s(all)
	if n := len(all); n > 0 {
		rep.P50Millis = all[n/2]
		rep.P99Millis = all[(n*99)/100]
		rep.MaxMillis = all[n-1]
	}
	if rep.Total > 0 {
		rep.ShedRatePct = 100 * float64(rep.Shed) / float64(rep.Total)
		rep.DedupRatePct = 100 * float64(rep.Deduped) / float64(rep.Total)
	}
	return rep, harness
}
