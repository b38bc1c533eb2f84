package core

import (
	"fmt"

	"capuchin/internal/exec"
	"capuchin/internal/obs"
)

// This file is Capuchin's dynamic-workload surface: plans are keyed by
// shape signature (batch size and sequence bucket), cached in a small
// LRU so recurring buckets reuse their plans, and invalidated when the
// executor detects the access pattern has drifted from the measured
// baseline — re-arming the bounded measured-mode pass of §4.2 instead
// of flying a stale plan. The paper motivates exactly this regime
// (eager mode, variable batch sizes, NLP bucketing, §3): measurement is
// cheap enough to redo online whenever the computation changes.

// BeginSignature installs the plan state for a shape signature before
// its first iteration runs, returning whether a guided plan is active.
// On a signature switch the outgoing plan stays cached; a cached plan
// for the incoming signature is reused (a plan-cache hit), otherwise the
// policy re-enters measured mode for measuredIters iterations.
// The plan rebinds to the rebuilt graph at the next iteration: a cached
// plan's Idx stay valid for a rebuilt graph of its signature, and bind
// re-keys it by ID when they do not. The first call only names
// the signature: state (including a LoadPlan-ed plan) is preserved and
// nothing is audited, keeping a constant-schedule dynamic run
// byte-identical to its static equivalent.
func (c *Capuchin) BeginSignature(sig string, env *exec.Env) bool {
	if sig == c.sig {
		return c.plan != nil
	}
	if c.sig == "" {
		c.sig = sig
		if c.plan != nil {
			c.cache.put(sig, c.plan)
		}
		return c.plan != nil
	}
	c.sig = sig
	c.planGraph = nil
	c.resetPrefetches()
	if p, ok := c.cache.get(sig); ok {
		c.plan = p
		c.measureLeft = 0
		c.measuring = false
		c.cacheHits++
		if env != nil && env.Tracing() {
			env.Decide(obs.Decision{
				Action: "plan-cache-hit", Bytes: p.coveredSwap + p.coveredRecomp,
				Reason: fmt.Sprintf("signature %s seen before; reusing its plan (%d swaps, %d recomputes)", sig, p.numSwap, p.numRecompute),
			})
		}
		return true
	}
	c.plan = nil
	c.tk = nil
	c.measuring = false
	c.measureLeft = measuredIters
	if env != nil && env.Tracing() {
		env.Decide(obs.Decision{
			Action: "plan-measure",
			Reason: fmt.Sprintf("signature %s unseen; scheduling %d measured iteration(s)", sig, c.measureLeft),
		})
	}
	return false
}

// InvalidatePlan drops the active signature's plan — the staleness
// detector decided it no longer matches the running access pattern —
// and schedules a bounded re-measurement pass starting next iteration.
// The cached copy is evicted too: a stale plan must not resurface on
// the next visit to this signature.
func (c *Capuchin) InvalidatePlan(reason string, env *exec.Env) {
	if c.plan == nil {
		return
	}
	c.invalidations++
	c.cache.remove(c.sig)
	c.plan = nil
	c.tk = nil
	c.resetPrefetches()
	c.measuring = false
	c.measureLeft = measuredIters
	if env != nil && env.Tracing() {
		env.Decide(obs.Decision{
			Action: "plan-invalidate",
			Reason: fmt.Sprintf("%s; scheduling %d re-measured iteration(s)", reason, c.measureLeft),
		})
	}
}

// Planned reports whether a guided plan is active for the current
// signature (false during measured and re-measured iterations).
func (c *Capuchin) Planned() bool { return c.plan != nil }

// planCache is a small LRU of plans keyed by shape signature.
type planCache struct {
	limit int
	order []string // least recently used first
	plans map[string]*plan
}

// planCacheSize bounds the per-signature plan cache.
const planCacheSize = 8

func newPlanCache(limit int) *planCache {
	return &planCache{limit: limit, plans: make(map[string]*plan)}
}

func (pc *planCache) touch(sig string) {
	for i, s := range pc.order {
		if s == sig {
			pc.order = append(pc.order[:i], pc.order[i+1:]...)
			break
		}
	}
	pc.order = append(pc.order, sig)
}

func (pc *planCache) get(sig string) (*plan, bool) {
	p, ok := pc.plans[sig]
	if ok {
		pc.touch(sig)
	}
	return p, ok
}

func (pc *planCache) put(sig string, p *plan) {
	if sig == "" || p == nil {
		return
	}
	if _, ok := pc.plans[sig]; !ok && len(pc.plans) >= pc.limit {
		oldest := pc.order[0]
		pc.order = pc.order[1:]
		delete(pc.plans, oldest)
	}
	pc.plans[sig] = p
	pc.touch(sig)
}

func (pc *planCache) remove(sig string) {
	if _, ok := pc.plans[sig]; !ok {
		return
	}
	delete(pc.plans, sig)
	for i, s := range pc.order {
		if s == sig {
			pc.order = append(pc.order[:i], pc.order[i+1:]...)
			break
		}
	}
}

func (pc *planCache) len() int { return len(pc.plans) }

// clear empties the cache, keeping its storage.
func (pc *planCache) clear() {
	clear(pc.plans)
	pc.order = pc.order[:0]
}
