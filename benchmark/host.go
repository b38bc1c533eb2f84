package main

import (
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"time"
)

// rng is a SplitMix64 stream: every input the benchmark generates comes
// from one, seeded by -seed, so a seed always yields the same inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle is a Fisher-Yates shuffle of n elements.
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// The reference host is a shared two-vCPU VM whose speed drifts by up to
// 40% over tens of minutes while neighbours load the machine, far more
// than any bound a regression could be judged by. Every wall-time metric
// is therefore reported in reference-host time: the raw time scaled by
// refCalibration over the run's median calibrate time. calibrate runs a
// fixed workload that shares no code with the simulator, so the scaling
// cancels the host's speed and keeps every change to the code.

// refCalibration is calibrate's typical time on the reference host; it
// only sets the scale of the reported numbers.
const refCalibration = 16 * time.Millisecond

// slowdown is how many times the reference's time this host took, from
// calibrate times in seconds: above 1 when the host runs slower.
func slowdown(calib []float64) float64 {
	return median(calib) / refCalibration.Seconds()
}

type calibNode struct {
	next, other *calibNode
	hits        uint64
}

// calibSink keeps calibrate's result live so the loop cannot be elided.
var calibSink atomic.Uint64

// calibrate times pointer chasing through a random graph of 64Ki nodes,
// with string-keyed map traffic and short-lived allocations: the mix of
// memory latency, hashing and allocation the simulator's hot path spends
// its time on. In a 13-minute probe in which the train workload's time,
// taken over 25-second windows, spread by 21% (interquartile range over
// median), its ratio to this loop's time spread by 4%.
func calibrate() time.Duration {
	const n = 1 << 16
	t0 := time.Now()
	nodes := make([]*calibNode, n)
	for i := range nodes {
		nodes[i] = &calibNode{}
	}
	x := uint64(7)
	for i := range nodes {
		x = x*6364136223846793005 + 1442695040888963407
		nodes[i].next = nodes[x%n]
		nodes[i].other = nodes[(x>>17)%n]
	}
	counts := make(map[string]int)
	var s uint64
	p := nodes[0]
	for i := 0; i < 1200000; i++ {
		p = p.next
		if i&1 == 0 {
			p = p.other
		}
		p.hits++
		s += p.hits
		if i%16 == 0 {
			counts["t"+strconv.Itoa(int(s%5000))]++
		}
	}
	calibSink.Store(s + uint64(len(counts)))
	return time.Since(t0)
}

const (
	heapObjectsMetric = "/memory/classes/heap/objects:bytes"
	allocsMetric      = "/gc/heap/allocs:objects"
)

func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	return readUint64(heapObjectsMetric)
}

// heapLimit stops a workload whose heap outgrows what a small shared host
// can spare; an unbounded serve store once got the whole process killed.
const heapLimit = 5 << 29 // 2.5 GiB

// heapGuard samples the heap while a workload runs and calls trip once
// the heap passes the limit.
type heapGuard struct {
	tripped atomic.Bool
	stopc   chan struct{}
	done    chan struct{}
}

func startHeapGuard(limit uint64, trip func()) *heapGuard {
	g := &heapGuard{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		s := []metrics.Sample{{Name: heapObjectsMetric}}
		for {
			select {
			case <-g.stopc:
				return
			case <-t.C:
			}
			metrics.Read(s)
			if s[0].Value.Uint64() > limit {
				g.tripped.Store(true)
				trip()
				return
			}
		}
	}()
	return g
}

// stop ends sampling, waits for the sampler to exit, and reports whether
// the limit was passed.
func (g *heapGuard) stop() bool {
	close(g.stopc)
	<-g.done
	return g.tripped.Load()
}
