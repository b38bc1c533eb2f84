package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// observeSynth feeds one access into the tracker.
func observeSynth(tk *tracker, t *tensor.Tensor, kind exec.AccessKind, at sim.Time, nodeID string) {
	intern(tk, t)
	count := t.AccessCount
	if kind != exec.Dealloc {
		count++
		t.AccessCount = count
	}
	acc := exec.Access{Tensor: t, Kind: kind, Count: count, At: at}
	if nodeID != "" {
		acc.Node = synthNode(tk, nodeID)
	}
	tk.observe(acc)
}

// synthTrace builds a randomized but well-formed measured trace: a chain
// of tensors produced in forward order, a random subset re-read in reverse
// order during "backward", everything deallocated at its last use.
func synthTrace(rng *rand.Rand) *tracker {
	tk := newTracker(0, 0)
	n := 10 + rng.Intn(30)
	type entry struct {
		t      *tensor.Tensor
		reread bool
	}
	var ts []entry
	now := sim.Time(0)
	var prev *tensor.Tensor
	for i := 0; i < n; i++ {
		size := int64(1+rng.Intn(64)) << 18 // 256 KiB .. 16 MiB
		var inputs []*tensor.Tensor
		if prev != nil {
			inputs = []*tensor.Tensor{prev}
		}
		x := syntheticTensor(randID(rng, i), size, inputs...)
		nodeID := "n_" + x.ID
		now += sim.Time(rng.Intn(3000)+200) * sim.Microsecond
		if prev != nil {
			observeSynth(tk, prev, exec.Read, now, nodeID)
		}
		now += sim.Time(rng.Intn(2000)+100) * sim.Microsecond
		observeSynth(tk, x, exec.Produce, now, nodeID)
		ts = append(ts, entry{t: x, reread: rng.Intn(2) == 0})
		prev = x
	}
	// Backward: reverse re-reads of the chosen subset.
	now += 50 * sim.Millisecond
	for i := len(ts) - 1; i >= 0; i-- {
		e := ts[i]
		if e.reread {
			now += sim.Time(rng.Intn(3000)+200) * sim.Microsecond
			observeSynth(tk, e.t, exec.Read, now, "g_"+e.t.ID)
		}
		observeSynth(tk, e.t, exec.Dealloc, now+sim.Microsecond, "")
	}
	tk.finish()
	return tk
}

func randID(rng *rand.Rand, i int) string {
	return string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26))) +
		string(rune('0'+i%10)) + string(rune('a'+i/10%26))
}

// Property: over randomized traces the planner only ever selects
// multi-access, non-persistent tensors above the size floor; swap plans
// have back > evict and triggers strictly inside the (evict, back) window.
func TestPlannerInvariantsProperty(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tk := synthTrace(rng)
		pl := &planner{
			tk:       tk,
			capacity: 64 << 20,
			params:   1 << 20,
			swapOut:  func(b int64) sim.Time { return sim.FromSeconds(float64(b) / 12e9) },
			swapIn:   func(b int64) sim.Time { return sim.FromSeconds(float64(b) / 11e9) },
		}
		p := pl.build()
		for pos, action := range p.evict {
			if action == actionNone {
				continue
			}
			k := p.seq[pos]
			r := tk.lookup(k.idx)
			if r == nil {
				t.Fatalf("seed %d: plan references unknown tensor %d", seed, k.idx)
			}
			id := r.t.ID
			if r.t.Persistent {
				t.Errorf("seed %d: persistent tensor %s selected", seed, id)
			}
			if len(r.accesses) < 2 {
				t.Errorf("seed %d: single-access tensor %s selected", seed, id)
			}
			if r.size < minCandidateBytes {
				t.Errorf("seed %d: tiny tensor %s (%d bytes) selected", seed, id, r.size)
			}
			if k.count < 1 || int(k.count) > len(r.accesses) {
				t.Errorf("seed %d: evict count %d out of range for %s", seed, k.count, id)
			}
		}
		for _, sp := range p.swaps {
			if sp == nil {
				continue
			}
			id := p.names[sp.idx]
			if sp.backCount <= sp.evictCount {
				t.Errorf("seed %d: %s back %d <= evict %d", seed, id, sp.backCount, sp.evictCount)
			}
			if sp.backAt <= sp.evictAt {
				t.Errorf("seed %d: %s back time not after evict time", seed, id)
			}
			if sp.triggerIdx >= 0 {
				tr := p.seq[sp.triggerIdx]
				if tr.at <= sp.evictAt || tr.at >= sp.backAt {
					t.Errorf("seed %d: %s trigger at %v outside (%v, %v)", seed, id, tr.at, sp.evictAt, sp.backAt)
				}
				if tr.idx == sp.idx {
					t.Errorf("seed %d: %s triggers on itself", seed, id)
				}
			}
			if p.sizes[sp.idx] == 0 {
				t.Errorf("seed %d: swap %s missing size", seed, id)
			}
		}
	}
}

// exportOf serializes a plan with the deterministic exporter, the
// equality oracle for plan comparison.
func exportOf(t *testing.T, p *plan) string {
	t.Helper()
	c := New(Options{})
	c.plan = p
	var buf bytes.Buffer
	if err := c.ExportPlan(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// buildSynthPlan derives a plan from the seed's synthetic trace.
func buildSynthPlan(seed int64) *plan {
	tk := synthTrace(rand.New(rand.NewSource(seed)))
	pl := &planner{
		tk:       tk,
		capacity: 64 << 20,
		params:   1 << 20,
		swapOut:  func(b int64) sim.Time { return sim.FromSeconds(float64(b) / 12e9) },
		swapIn:   func(b int64) sim.Time { return sim.FromSeconds(float64(b) / 11e9) },
	}
	return pl.build()
}

// Property: for any generated access pattern, a plan-cache hit after
// invalidation+rebuild under an identical shape signature returns a
// plan equal to a fresh build — the planner is deterministic and the
// cache neither corrupts nor resurrects entries.
func TestPlanCacheRoundTripProperty(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		fresh := buildSynthPlan(seed)
		rebuilt := buildSynthPlan(seed) // identical trace, fresh build
		want := exportOf(t, fresh)
		if got := exportOf(t, rebuilt); got != want {
			t.Fatalf("seed %d: planner not deterministic over identical traces", seed)
		}
		cache := newPlanCache(4)
		sig := fmt.Sprintf("b%d/s%d", seed, 128)
		cache.put(sig, fresh)
		got, ok := cache.get(sig)
		if !ok || got != fresh {
			t.Fatalf("seed %d: cache miss immediately after put", seed)
		}
		cache.remove(sig) // the invalidation path
		if _, ok := cache.get(sig); ok {
			t.Fatalf("seed %d: invalidated plan resurfaced", seed)
		}
		cache.put(sig, rebuilt) // the re-measured rebuild
		got, ok = cache.get(sig)
		if !ok {
			t.Fatalf("seed %d: rebuilt plan not cached", seed)
		}
		if exportOf(t, got) != want {
			t.Fatalf("seed %d: cache hit after invalidation+rebuild differs from fresh build", seed)
		}
	}
}

// Property: the plan cache is a bounded LRU — size never exceeds the
// limit, eviction removes the least recently used signature, and a get
// refreshes recency.
func TestPlanCacheLRUProperty(t *testing.T) {
	cache := newPlanCache(4)
	plans := make(map[string]*plan)
	for i := 0; i < 10; i++ {
		sig := fmt.Sprintf("b%d", i)
		plans[sig] = buildSynthPlan(int64(i + 1))
		cache.put(sig, plans[sig])
		if cache.len() > 4 {
			t.Fatalf("cache grew to %d entries (limit 4)", cache.len())
		}
	}
	for i := 0; i < 6; i++ {
		if _, ok := cache.get(fmt.Sprintf("b%d", i)); ok {
			t.Errorf("b%d survived past the LRU bound", i)
		}
	}
	for i := 6; i < 10; i++ {
		if _, ok := cache.get(fmt.Sprintf("b%d", i)); !ok {
			t.Errorf("recent b%d evicted", i)
		}
	}
	// Touch b6, insert a new signature: b7 (now oldest) is the victim.
	cache.get("b6")
	cache.put("b10", plans["b9"])
	if _, ok := cache.get("b6"); !ok {
		t.Error("touched entry b6 evicted")
	}
	if _, ok := cache.get("b7"); ok {
		t.Error("LRU victim b7 survived")
	}
	// Re-putting an existing signature must not evict anyone.
	before := cache.len()
	cache.put("b10", plans["b9"])
	if cache.len() != before {
		t.Error("idempotent put changed cache size")
	}
}

// checkActivePlanCached asserts the satellite invariant: whenever a plan
// is installed, the cache still holds that exact plan under the active
// signature — LRU churn from other signatures must never evict (or
// replace) the plan currently steering execution mid-iteration.
func checkActivePlanCached(t *testing.T, c *Capuchin, step string) {
	t.Helper()
	if c.cache.len() > c.cache.limit {
		t.Fatalf("%s: cache holds %d plans (limit %d)", step, c.cache.len(), c.cache.limit)
	}
	if len(c.cache.order) != len(c.cache.plans) {
		t.Fatalf("%s: cache order has %d entries for %d plans", step, len(c.cache.order), len(c.cache.plans))
	}
	for _, sig := range c.cache.order {
		if _, ok := c.cache.plans[sig]; !ok {
			t.Fatalf("%s: order references %s which holds no plan", step, sig)
		}
	}
	if c.plan == nil {
		return
	}
	cached, ok := c.cache.plans[c.sig]
	if !ok {
		t.Fatalf("%s: installed plan's signature %s evicted from the cache", step, c.sig)
	}
	if cached != c.plan {
		t.Fatalf("%s: cache holds a different plan under the active signature %s", step, c.sig)
	}
}

// finishMeasuredPass emulates the tail of EndIteration after a measured
// pass: the planner built a plan for the active signature and cached it.
func finishMeasuredPass(c *Capuchin, seed int64) {
	c.plan = buildSynthPlan(seed)
	c.measureLeft = 0
	c.measuring = false
	c.cache.put(c.sig, c.plan)
}

// Property: across random signature switch/invalidate sequences at every
// cache limit — including the pathological limit of 1 — the plan
// installed for the active signature is never evicted by LRU churn: the
// active signature is always most-recently-used (touched by the get on a
// cache hit or the put after a build), so eviction can only claim plans
// of inactive signatures.
func TestPlanCacheActivePlanNeverEvictedProperty(t *testing.T) {
	for _, limit := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(limit)))
			c := New(Options{})
			c.cache = newPlanCache(limit)
			sigs := make([]string, limit+3)
			for i := range sigs {
				sigs[i] = fmt.Sprintf("b%d", 8<<i)
			}
			for step := 0; step < 200; step++ {
				label := fmt.Sprintf("limit %d seed %d step %d", limit, seed, step)
				switch op := rng.Intn(10); {
				case op < 7: // switch signature (the dominant operation)
					sig := sigs[rng.Intn(len(sigs))]
					hit := c.BeginSignature(sig, nil)
					checkActivePlanCached(t, c, label+" switch")
					if !hit && c.sig == sig && c.plan == nil {
						// Measured pass completes at the iteration end.
						finishMeasuredPass(c, rng.Int63n(25)+1)
						checkActivePlanCached(t, c, label+" plan-build")
					}
				case op < 9: // staleness invalidation of the active plan
					c.InvalidatePlan("synthetic drift", nil)
					checkActivePlanCached(t, c, label+" invalidate")
					if c.sig != "" && c.plan == nil {
						finishMeasuredPass(c, rng.Int63n(25)+1)
						checkActivePlanCached(t, c, label+" re-plan")
					}
				default: // re-visit the active signature (steady state)
					if c.sig != "" {
						c.BeginSignature(c.sig, nil)
						checkActivePlanCached(t, c, label+" steady")
					}
				}
			}
		}
	}
}

// Directed companion: a plan cache of 1 with cycling signatures is the
// tightest squeeze — every switch evicts the other signature's plan, yet
// the incoming signature's freshly built (or re-built) plan must always
// survive its own installation.
func TestPlanCacheSizeOneCyclingKeepsActivePlan(t *testing.T) {
	c := New(Options{})
	c.cache = newPlanCache(1)
	for round := 0; round < 6; round++ {
		for i, sig := range []string{"b8", "b16", "b8/s128"} {
			hit := c.BeginSignature(sig, nil)
			if hit {
				t.Fatalf("round %d: %s hit a single-entry cache after churn", round, sig)
			}
			if c.plan != nil {
				t.Fatalf("round %d: plan installed without a measured pass", round)
			}
			finishMeasuredPass(c, int64(round*3+i+1))
			checkActivePlanCached(t, c, sig)
			if got := c.cache.len(); got != 1 {
				t.Fatalf("round %d: cache len %d, want 1", round, got)
			}
		}
	}
}

// Property: the measured trace's {tensor, count} keys are unique — the
// precondition for keying guided-mode actions on them (§5.2).
func TestTraceKeysUniqueProperty(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		tk := synthTrace(rand.New(rand.NewSource(seed)))
		type access struct{ idx, count int32 }
		seen := make(map[access]bool)
		for _, e := range tk.seq {
			k := access{e.idx, e.count}
			if seen[k] {
				t.Fatalf("seed %d: duplicate access key %+v", seed, k)
			}
			seen[k] = true
		}
	}
}
