// Package chunk implements a chunk-based placement rival policy in the
// PatrickStar/Gemini idiom: non-persistent tensors are packed into
// fixed-size chunks in schedule order, a warmup iteration's stats
// collector records the chunk access tape, and from it the policy derives
// a chunk-granularity placement plan — which chunks leave the device at
// which access step, and when each comes back ahead of its next use. All
// movement happens at chunk granularity: evicting or prefetching a chunk
// moves every member tensor together.
//
// Against Capuchin the interesting contrast is granularity: Capuchin moves
// individual tensors at measured in-triggers, while chunking trades
// precision for allocator friendliness (a chunk is one contiguous unit, so
// placement never fragments) — the simulator's BFC pool cannot model that
// benefit, but the traffic pattern difference shows up in the arena table.
package chunk

import (
	"errors"
	"sort"

	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/tensor"
)

// Options configures the chunk policy.
type Options struct {
	// ChunkBytes is the fixed chunk capacity; 0 means device memory / 8.
	// A single oversize tensor occupies a chunk of its own.
	ChunkBytes int64
}

const (
	// lookahead is how many chunk accesses before a chunk's next use its
	// prefetch is issued.
	lookahead = 8
	// headroomDiv withholds 1/headroomDiv of device memory from the
	// placement budget for workspace and fragmentation.
	headroomDiv = 16
)

// Policy is the chunk-based placement policy.
type Policy struct {
	budget int64

	// chunkOf maps tensor ID to chunk index; chunks holds the members in
	// packing order; sizes the summed member bytes.
	chunkOf map[string]int
	chunks  [][]*tensor.Tensor
	sizes   []int64

	// tape is the warmup chunk-access sequence (one entry per Produce or
	// Read of a member tensor); occ indexes each chunk's positions in it.
	tape []int
	occ  [][]int

	// collected flips after the warmup iteration's plan build.
	collected bool
	// pos is the current tape position during guided iterations; hot the
	// chunk of the current access (never an eviction victim).
	pos, hot int

	// evictAt and prefetchAt map a tape position to the chunks to move
	// after that access.
	evictAt    map[int][]int
	prefetchAt map[int][]int
}

var _ exec.Policy = (*Policy)(nil)

// New packs the graph's non-persistent tensors into chunks.
func New(g *graph.Graph, dev hw.DeviceSpec, opts Options) *Policy {
	if opts.ChunkBytes == 0 {
		opts.ChunkBytes = dev.MemoryBytes / 8
	}
	p := &Policy{
		chunkOf:    make(map[string]int),
		evictAt:    make(map[int][]int),
		prefetchAt: make(map[int][]int),
		hot:        -1,
	}
	p.budget = dev.MemoryBytes - g.ParameterBytes() - dev.MemoryBytes/headroomDiv
	if p.budget < 1 {
		p.budget = 1
	}
	var cur []*tensor.Tensor
	var curBytes int64
	flush := func() {
		if len(cur) == 0 {
			return
		}
		idx := len(p.chunks)
		for _, t := range cur {
			p.chunkOf[t.ID] = idx
		}
		p.chunks = append(p.chunks, cur)
		p.sizes = append(p.sizes, curBytes)
		cur, curBytes = nil, 0
	}
	for _, n := range g.Nodes {
		for _, out := range n.Outputs {
			if out.Persistent {
				continue
			}
			if _, dup := p.chunkOf[out.ID]; dup {
				continue
			}
			b := out.Bytes()
			if curBytes+b > opts.ChunkBytes && curBytes > 0 {
				flush()
			}
			cur = append(cur, out)
			curBytes += b
			p.chunkOf[out.ID] = len(p.chunks) // provisional; flush fixes it
		}
	}
	flush()
	return p
}

// Name implements exec.Policy.
func (p *Policy) Name() string { return "chunk" }

// TracksAccesses implements exec.Policy: after warmup the plan is static,
// like the layer-wise baselines; no per-access runtime tracking charge.
func (p *Policy) TracksAccesses() bool { return false }

// degenerate reports that chunking collapsed to at most one chunk: every
// activation co-resident, nothing to place. The policy then acts exactly
// like the no-management baseline.
func (p *Policy) degenerate() bool { return len(p.chunks) <= 1 }

// BeginIteration implements exec.Policy.
func (p *Policy) BeginIteration(iter int, _ *exec.Env) {
	p.pos = 0
	p.hot = -1
	if iter == 0 {
		p.tape = p.tape[:0]
		p.collected = false
	}
}

// OnAccess implements exec.Policy. Iteration 0 is the warmup stats
// collector: it records the chunk access tape. Later iterations replay the
// placement plan keyed to tape position.
func (p *Policy) OnAccess(acc exec.Access, env *exec.Env) {
	if p.degenerate() || acc.Kind == exec.Dealloc {
		return
	}
	c, ok := p.chunkOf[acc.Tensor.ID]
	if !ok {
		return
	}
	if !p.collected {
		p.tape = append(p.tape, c)
		return
	}
	p.hot = c
	for _, victim := range p.evictAt[p.pos] {
		for _, t := range p.chunks[victim] {
			env.SwapOutAsync(t)
		}
	}
	for _, want := range p.prefetchAt[p.pos] {
		for _, t := range p.chunks[want] {
			env.SwapInAsync(t)
		}
	}
	p.pos++
}

// EndIteration implements exec.Policy: after warmup, build the plan.
func (p *Policy) EndIteration(iter int, _ *exec.Env) {
	if iter == 0 && !p.degenerate() {
		p.buildPlan()
	}
	if iter == 0 {
		p.collected = true
	}
}

// nextAccess returns the first tape position strictly after i where chunk
// c is accessed, or -1 when it never is again.
func (p *Policy) nextAccess(c, i int) int {
	positions := p.occ[c]
	lo := sort.SearchInts(positions, i+1)
	if lo == len(positions) {
		return -1
	}
	return positions[lo]
}

// buildPlan simulates chunk residency over the warmup tape under the
// memory budget: arriving chunks displace the resident chunk whose next
// access is furthest away (never the chunk being accessed), and each
// displaced chunk that is needed again gets a prefetch lookahead accesses
// ahead of that need.
func (p *Policy) buildPlan() {
	p.occ = make([][]int, len(p.chunks))
	for i, c := range p.tape {
		p.occ[c] = append(p.occ[c], i)
	}
	resident := make(map[int]bool)
	var residentBytes int64
	type evicted struct{ chunk, at, back int }
	var evictions []evicted
	for i, c := range p.tape {
		if !resident[c] {
			resident[c] = true
			residentBytes += p.sizes[c]
		}
		// Dead chunks leave the model silently: their tensors are freed by
		// refcount, no action needed.
		for _, r := range sortedKeys(resident) {
			if r != c && p.nextAccess(r, i) == -1 {
				delete(resident, r)
				residentBytes -= p.sizes[r]
			}
		}
		for residentBytes > p.budget {
			victim, victimNext := -1, -1
			for _, r := range sortedKeys(resident) {
				if r == c {
					continue
				}
				if next := p.nextAccess(r, i); victim == -1 || next > victimNext {
					victim, victimNext = r, next
				}
			}
			if victim == -1 {
				break // only the hot chunk left; nothing movable
			}
			delete(resident, victim)
			residentBytes -= p.sizes[victim]
			p.evictAt[i] = append(p.evictAt[i], victim)
			evictions = append(evictions, evicted{victim, i, victimNext})
		}
	}
	for _, ev := range evictions {
		if ev.back == -1 {
			continue
		}
		trig := ev.back - lookahead
		if trig < ev.at+1 {
			trig = ev.at + 1
		}
		if trig > ev.back-1 {
			trig = ev.back - 1
		}
		if trig <= ev.at || trig >= ev.back {
			continue // no room between eviction and re-access
		}
		p.prefetchAt[trig] = append(p.prefetchAt[trig], ev.chunk)
	}
}

// sortedKeys iterates map keys deterministically.
func sortedKeys(m map[int]bool) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// OnOOM implements exec.Policy. In the degenerate single-chunk regime the
// policy is the baseline and OOM is fatal. During warmup it falls back to
// LRU passive eviction (the plan does not exist yet). In guided mode it
// offers the coldest chunks — furthest next access from the current tape
// position, the hot chunk excluded.
func (p *Policy) OnOOM(need int64, env *exec.Env) ([]*tensor.Tensor, bool) {
	if p.degenerate() {
		return nil, false
	}
	if !p.collected {
		v := env.LRUResidents(need)
		return v, len(v) > 0
	}
	type cold struct{ chunk, next int }
	var order []cold
	for c := range p.chunks {
		if c == p.hot {
			continue
		}
		next := p.nextAccess(c, p.pos-1)
		if next == -1 {
			next = len(p.tape) // never again: coldest
		}
		order = append(order, cold{c, next})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].next != order[j].next {
			return order[i].next > order[j].next
		}
		return order[i].chunk < order[j].chunk
	})
	var victims []*tensor.Tensor
	var freed int64
	for _, cd := range order {
		for _, t := range p.chunks[cd.chunk] {
			if env.Evictable(t) {
				victims = append(victims, t)
				freed += t.Bytes()
			}
		}
		if freed >= need {
			break
		}
	}
	if len(victims) == 0 {
		return nil, false
	}
	return victims, true
}

func init() {
	exec.RegisterPolicy(exec.PolicySpec{
		Name:  "chunk",
		Doc:   "chunk-based placement (PatrickStar idiom): fixed chunks, warmup tape, chunk-granularity moves",
		Arena: true,
		Build: func(bc exec.BuildContext) (exec.Policy, error) {
			if bc.Graph == nil {
				return nil, errors.New("chunk: policy keys its packing to one graph")
			}
			return New(bc.Graph, bc.Device, Options{}), nil
		},
	})
}
