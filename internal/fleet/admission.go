package fleet

import (
	"fmt"
	"math"
	"sort"

	"capuchin/internal/memory"
	"capuchin/internal/sim"
)

// Run drives the scenario to completion and returns its report. Every
// job ends in exactly one of StateCompleted or StateRejected; the loop
// is guaranteed to terminate because each event either makes progress
// (iterations complete, a job dies for good) or is bounded by the
// per-job kill budget.
func (f *Fleet) Run() (Report, error) {
	for _, j := range f.jobs {
		f.q.push(j.Arrival, evArrive, j, j.gen)
	}
	for f.step() {
	}
	// Anything still queued can never run: the fleet is drained (no
	// completions pending), so the blocker is structural — bands or
	// capacity — not transient load.
	for len(f.queued) > 0 {
		j := f.queued[0]
		f.queueRemove(j)
		f.reject(j, "starved: fleet drained with job unadmittable")
	}
	if err := f.checkAccounting(); err != nil {
		return Report{}, err
	}
	return f.buildReport(), nil
}

// step handles the next event, and reports false once none is left.
func (f *Fleet) step() bool {
	at, ev, ok := f.q.Pop()
	if !ok {
		return false
	}
	f.advance(at)
	j := ev.job
	if ev.gen != j.gen {
		return true // stale: the job was killed or preempted since
	}
	switch ev.kind {
	case evArrive:
		f.onArrive(j)
	case evProfiled:
		f.onProfiled(j)
	case evPeak:
		f.onPeak(j)
	case evComplete:
		f.onComplete(j)
	case evRequeue:
		f.onRequeue(j)
	}
	return true
}

// onArrive starts the admission pipeline for a newly arrived job.
func (f *Fleet) onArrive(j *Job) {
	if f.cfg.Admission == AdmitAll {
		// No warmup sandbox: straight to the queue.
		f.enqueue(j, "arrived (admit-all)")
		f.drainQueue()
		return
	}
	// Sandbox warmup: the job spends DefaultWarmupIters instrumented
	// iterations off-fleet, after which its measured peak feeds the
	// predictor.
	delay := sim.Time(DefaultWarmupIters) * j.Profile.IterTime
	f.q.push(f.now+delay, evProfiled, j, j.gen)
}

// onProfiled moves a warmed-up job into the admission queue.
func (f *Fleet) onProfiled(j *Job) {
	f.emitJobSpan(j, -1, "warmup", j.Arrival, "sandbox", j.Profile.WarmupPeak)
	reason := ""
	if f.traced() {
		reason = fmt.Sprintf("warmup peak %d -> predicted %d", j.Profile.WarmupPeak, j.Predicted)
	}
	f.enqueue(j, reason)
	f.drainQueue()
}

// onRequeue returns a killed job to the queue after its backoff.
func (f *Fleet) onRequeue(j *Job) {
	if f.traced() {
		f.decide(j, "requeue", fmt.Sprintf("backoff expired after kill %d", j.Kills), -1, 0)
	}
	f.enqueue(j, "")
	f.drainQueue()
}

// enqueue inserts j into the admission queue and sheds overflow: beyond
// maxQueue the lowest-class youngest job (the queue tail, by the queue's
// ordering) is rejected so the queue degrades by priority, never blocks.
func (f *Fleet) enqueue(j *Job, reason string) {
	f.queueInsert(j)
	if reason != "" {
		f.decide(j, "queue", reason, -1, j.Predicted)
	}
	for len(f.queued) > f.maxQueue {
		victim := f.queued[len(f.queued)-1]
		f.queueRemove(victim)
		f.met.Add(mShed, 1)
		if f.traced() {
			f.decide(victim, "shed", fmt.Sprintf("queue over %d", f.maxQueue), -1, 0)
		}
		f.reject(victim, "shed: admission queue full")
	}
}

// drainQueue admits every queued job that fits, in priority order, with
// backfill: a job that cannot fit is skipped, not head-of-line blocking,
// but bands keep backfilled low-class jobs out of higher classes'
// reservations. One pass per call; each admission can only free queue
// slots, never invalidate an earlier refusal within the same instant.
func (f *Fleet) drainQueue() {
	for i := 0; i < len(f.queued); {
		j := f.queued[i]
		switch f.tryAdmit(j) {
		case admitOK:
			f.queueRemove(j)
		case admitReject:
			f.queueRemove(j)
		default: // admitWait
			i++
		}
	}
}

type admitResult int

const (
	admitWait admitResult = iota
	admitOK
	admitReject
)

// reserveBytes is the job's step-1 reservation: what the controller
// holds for it at admission. Under prediction it is the predicted peak
// (or the Capuchin cap for a capped readmission); under admit-all the
// job's current ramp footprint — roughly half its eventual peak, the
// part of the misprediction story the baseline cannot see.
func (f *Fleet) reserveBytes(j *Job) int64 {
	if f.cfg.Admission == AdmitAll {
		return j.Actual / 2
	}
	if j.Cap > 0 {
		// A capped readmission reserves exactly its cap: under the
		// manager the job cannot exceed it, so the reservation is exact
		// and the retry cannot OOM at peak.
		return j.Cap
	}
	return j.Predicted
}

// fullDemand is the bytes the job will hold after its on-device ramp.
func (f *Fleet) fullDemand(j *Job) int64 {
	if j.Cap > 0 && j.Cap < j.Actual {
		return j.Cap
	}
	return j.Actual
}

// tryAdmit runs the admission decision for one queued job.
func (f *Fleet) tryAdmit(j *Job) admitResult {
	need := f.reserveBytes(j)
	maxDev := f.maxDev

	// A job whose reservation exceeds every device cannot run as-is.
	// Under Capuchin the controller caps it proactively — admit under
	// the largest device's capacity (less allocator slack) when the
	// prediction deems that ratio feasible — instead of rejecting.
	if need > maxDev && f.cfg.Manager == ManagerCapuchin && j.Cap == 0 && j.Predicted > 0 {
		capBytes := maxDev - maxDev/16
		if float64(capBytes) >= j.Profile.MinCapRatio*float64(j.Predicted) {
			j.Cap = capBytes
			need = f.reserveBytes(j)
		}
	}

	// Livelock guard: a reservation no device can hold means the job
	// can never start; reject now rather than cycling it forever.
	if need > maxDev {
		if f.traced() {
			f.decide(j, "reject", fmt.Sprintf("reservation %d exceeds largest device %d", need, maxDev), -1, need)
		}
		f.reject(j, "unfittable: exceeds largest device")
		return admitReject
	}

	if f.cfg.Admission == Predictive && !f.bandAllows(j.Class, need) {
		return admitWait
	}

	// Worst-fit placement: the device with the most contiguous free
	// space, so large later arrivals aren't squeezed out by fragmentation.
	if dev := f.place(j, need); dev >= 0 {
		f.startAttempt(j, dev, need)
		return admitOK
	}

	// Nothing fits. Higher-class jobs may preempt strictly lower
	// classes to make room.
	if f.cfg.Admission == Predictive && j.Class > Low {
		if dev := f.preemptFor(j, need); dev >= 0 {
			if d := f.allocOn(dev, j, need); d {
				f.startAttempt(j, dev, need)
				return admitOK
			}
		}
	}
	return admitWait
}

// bandAllows checks the admission half of the class memory bands: the
// class must stay at or under its maxFrac share of fleet memory. minFrac
// is not withheld at admission — lower classes may borrow idle guarantee
// space — because the guarantee is enforced dynamically instead: higher
// classes reclaim it through preemption, and preemptShielded keeps any
// class from being preempted below its own minFrac.
func (f *Fleet) bandAllows(c Class, need int64) bool {
	return float64(f.classUsed[c]+need) <= f.bands[c].maxFrac*float64(f.fleetAlloc)
}

// preemptShielded reports whether evicting bytes from class c would push
// the class below its guaranteed minFrac share — such victims are off
// the table. freed is what preemption has already taken from c in the
// current sweep.
func (f *Fleet) preemptShielded(c Class, freed, bytes int64) bool {
	floor := f.bands[c].minFrac * float64(f.fleetAlloc)
	return float64(f.classUsed[c]-freed-bytes) < floor
}

// place performs worst-fit placement: it allocates need bytes on the
// device with the largest contiguous free chunk, the lowest index on
// ties, and returns that device's index, or -1 when nothing fits. A BFC
// pool satisfies a request iff its largest free chunk holds the rounded
// size, so if the argmax device fails every device fails: probing it
// alone picks exactly the device a probe of every device in worst-fit
// order would. The argmax is rescanned only after a pool has changed,
// and a request above its chunk is refused without a probe, since
// rounding only grows a request.
func (f *Fleet) place(j *Job, need int64) int {
	if !f.fit.ok || f.fit.ver != f.poolVer {
		best, bestFree := 0, f.devs[0].pool.LargestFree()
		for i, d := range f.devs[1:] {
			if lf := d.pool.LargestFree(); lf > bestFree {
				best, bestFree = i+1, lf
			}
		}
		f.fit = worstFit{ver: f.poolVer, ok: true, dev: best, free: bestFree}
	}
	if need > f.fit.free {
		return -1
	}
	if dev := f.fit.dev; f.allocOn(dev, j, need) {
		return dev
	}
	return -1
}

// allocOn tries to allocate need bytes for j on device di, updating the
// class accounting on success. It probes with TryAlloc: a refusal is an
// ordinary scheduling outcome here, not an error to diagnose.
func (f *Fleet) allocOn(di int, j *Job, need int64) bool {
	d := f.devs[di]
	a := d.pool.TryAlloc(need)
	if a == nil {
		return false
	}
	f.poolVer++
	j.alloc = append(j.alloc, a)
	j.allocBytes += a.Size
	f.classUsed[j.Class] += a.Size
	d.held[j.Class] += a.Size
	f.emitDeviceMemory(di)
	return true
}

// startAttempt transitions j to running on device dev with reserve bytes
// held, and schedules its ramp peak and completion.
func (f *Fleet) startAttempt(j *Job, dev int, reserve int64) {
	j.State = StateRunning
	j.Device = dev
	f.devs[dev].jobs[j.ID] = j
	j.Admissions++
	f.met.Add(mAdmissions, 1)
	f.met.Observe(hQueueWaitBy[j.Class], f.now-j.queuedAt)
	j.admitAt = f.now
	j.startIters = j.DoneIters
	j.peaked = false

	j.effIter = j.Profile.IterTime
	if j.Cap > 0 && j.Cap < j.Actual {
		ratio := float64(j.Cap) / float64(j.Actual)
		if s, ok := j.Profile.Slowdown(ratio); ok {
			j.effIter = sim.Time(float64(j.Profile.IterTime) * s)
			j.Capped = true
		}
	}

	remaining := j.Iters - j.DoneIters
	ramp := DefaultWarmupIters
	if ramp > remaining {
		ramp = remaining
	}
	j.completeAt = f.now + sim.Time(remaining)*j.effIter
	f.q.push(f.now+sim.Time(ramp)*j.effIter, evPeak, j, j.gen)
	f.q.push(j.completeAt, evComplete, j, j.gen)

	action := "admit"
	if j.Cap > 0 {
		action = "readmit-capped"
	}
	if f.traced() {
		f.emitInstant(j, dev, "admission", action, fmt.Sprintf("attempt %d", j.Admissions), reserve)
		f.decide(j, action, fmt.Sprintf("reserved %d on device %d (attempt %d)", reserve, dev, j.Admissions), dev, reserve)
	}
}

// onPeak fires when a running job finishes its ramp and demands its full
// realized footprint — where predictions meet reality.
func (f *Fleet) onPeak(j *Job) {
	if j.State != StateRunning || j.peaked {
		return
	}
	j.peaked = true

	// A cap chosen from the prediction may prove infeasible against the
	// realized footprint: below MinCapRatio the working set no longer
	// fits between accesses and the job dies anyway. The readmission cap
	// is then derived from the now-observed peak, so the retry is sound.
	if j.Cap > 0 {
		if _, ok := j.Profile.Slowdown(float64(j.Cap) / float64(j.Actual)); !ok {
			reason := ""
			if f.traced() {
				reason = fmt.Sprintf("cap %d infeasible at realized peak %d", j.Cap, j.Actual)
			}
			f.oomKill(j, reason)
			return
		}
	}

	full := f.fullDemand(j)
	delta := full - j.allocBytes

	if delta <= 0 {
		// Overprediction: shrink the reservation to the realized
		// footprint, returning the safety margin to the fleet. Freeing
		// before reallocating a strictly smaller block cannot fail.
		f.releaseAllocs(j)
		if !f.allocOn(j.Device, j, full) {
			panic("fleet: shrink reallocation failed")
		}
		return
	}

	// Underprediction: the job needs delta more bytes than reserved.
	if f.allocOn(j.Device, j, delta) {
		return
	}
	// Device is full. A higher-class job may preempt lower classes
	// resident on its own device.
	if f.cfg.Admission == Predictive && j.Class > Low {
		if f.preemptOn(j.Device, j, delta) && f.allocOn(j.Device, j, delta) {
			return
		}
	}
	// Capuchin absorption: keep running under the bytes already held as
	// a managed cap, paying slowdown instead of dying — if the cap is
	// feasible for the workload.
	if f.cfg.Manager == ManagerCapuchin {
		ratio := float64(j.allocBytes) / float64(j.Actual)
		if s, ok := j.Profile.Slowdown(ratio); ok {
			f.absorbCap(j, s)
			return
		}
	}
	reason := ""
	if f.traced() {
		reason = fmt.Sprintf("peak %d over reservation %d, device full", full, j.allocBytes)
	}
	f.oomKill(j, reason)
}

// absorbCap re-plans a running job under cap = its current reservation:
// progress is checkpointed, the iteration time is stretched by the
// managed slowdown, and completion is rescheduled.
func (f *Fleet) absorbCap(j *Job, slowdown float64) {
	f.checkpoint(j)
	f.emitJobSpan(j, j.Device, "running", j.admitAt, "absorb-cap", j.allocBytes)
	j.Cap = j.allocBytes
	j.Capped = true
	j.gen++ // invalidate the old completion event
	j.admitAt = f.now
	j.startIters = j.DoneIters
	j.effIter = sim.Time(float64(j.Profile.IterTime) * slowdown)
	remaining := j.Iters - j.DoneIters
	j.completeAt = f.now + sim.Time(remaining)*j.effIter
	f.q.push(j.completeAt, evComplete, j, j.gen)
	f.met.Add(mCapAbsorbs, 1)
	if f.traced() {
		f.emitInstant(j, j.Device, "admission", "absorb-cap", fmt.Sprintf("slowdown %.2fx", slowdown), j.Cap)
		f.decide(j, "absorb-cap", fmt.Sprintf("cap %d (%.0f%% of peak), slowdown %.2fx", j.Cap, 100*float64(j.Cap)/float64(j.Actual), slowdown), j.Device, j.Cap)
	}
}

// checkpoint folds completed iterations of the current attempt into
// DoneIters — the crash-safety mechanism: killed and preempted jobs
// resume from their checkpoint, losing at most the fraction of one
// iteration in flight.
func (f *Fleet) checkpoint(j *Job) {
	if j.State != StateRunning || j.effIter <= 0 {
		return
	}
	done := int((f.now - j.admitAt) / j.effIter)
	total := j.startIters + done
	if total > j.Iters {
		total = j.Iters
	}
	if total > j.DoneIters {
		j.workByteSec += float64(float64(j.allocBytes) * (sim.Time(total-j.DoneIters) * j.effIter).Seconds())
		j.DoneIters = total
	}
}

// releaseAllocs frees every allocation j holds and unwinds the class
// accounting.
func (f *Fleet) releaseAllocs(j *Job) {
	if j.Device >= 0 {
		d := f.devs[j.Device]
		for _, a := range j.alloc {
			memory.MustFree(d.pool, a)
		}
		d.held[j.Class] -= j.allocBytes
		if len(j.alloc) > 0 {
			f.poolVer++
			f.emitDeviceMemory(j.Device)
		}
	}
	f.classUsed[j.Class] -= j.allocBytes
	clear(j.alloc)
	j.alloc = j.alloc[:0]
	j.allocBytes = 0
}

// evict takes a running job off its device (checkpointing first) without
// deciding its fate; the caller requeues, rejects or backs it off.
func (f *Fleet) evict(j *Job) {
	f.checkpoint(j)
	f.releaseAllocs(j)
	if j.Device >= 0 {
		delete(f.devs[j.Device].jobs, j.ID)
	}
	j.Device = -1
	j.gen++
}

// The kill-recovery constants: a job killed more than maxKills times is
// rejected; a requeue waits backoffBase doubled per kill (sim.Backoff);
// a Capuchin readmission caps the job at capRetryRatio of its realized
// peak, tightened 10% per further kill.
const (
	maxKills      = 4
	backoffBase   = 10 * sim.Millisecond
	capRetryRatio = 0.8
)

// oomKill handles a genuine OOM on a running job: checkpoint, evict,
// back off, and either requeue (optionally with a tighter Capuchin cap)
// or reject when the kill budget is spent.
func (f *Fleet) oomKill(j *Job, reason string) {
	dev := j.Device
	f.checkpoint(j)
	f.emitJobSpan(j, dev, "running", j.admitAt, "oom-kill", j.allocBytes)
	f.emitInstant(j, dev, "oom", "oom-kill", reason, j.allocBytes)
	f.evict(j)
	j.Kills++
	f.met.Add(mKills, 1)
	f.met.Add(mKillsBy[j.Class], 1)
	f.decide(j, "oom-kill", reason, -1, 0)
	if j.Kills > maxKills {
		reason := ""
		if f.traced() {
			reason = fmt.Sprintf("killed %d times, budget %d", j.Kills, maxKills)
		}
		f.reject(j, reason)
		return
	}
	if f.cfg.Manager == ManagerCapuchin {
		// Readmit under a tighter cap: capRetryRatio of the realized
		// peak, tightened 10% per further kill, floored at feasibility.
		ratio := capRetryRatio * math.Pow(0.9, float64(j.Kills-1))
		if ratio < j.Profile.MinCapRatio {
			ratio = j.Profile.MinCapRatio
		}
		j.Cap = int64(float64(j.Actual) * ratio)
	}
	j.State = StateBackoff
	f.met.Add(mRequeues, 1)
	f.q.push(f.now+sim.Backoff(backoffBase, j.Kills-1), evRequeue, j, j.gen)
}

// preemptFor finds a device where evicting strictly-lower-class jobs
// frees at least need contiguous-capacity bytes for j, and performs the
// eviction. Returns the device index or -1. Victims are requeued with
// their progress checkpointed, never rejected.
func (f *Fleet) preemptFor(j *Job, need int64) int {
	// Per-class freeable bytes fleet-wide: what each lower class holds
	// above its minFrac shield. A device's share is clipped by it (an
	// upper bound; preemptOn re-checks victim by victim).
	var allow [numClasses]int64
	for c := Low; c < j.Class; c++ {
		allow[c] = max(0, f.classUsed[c]-int64(f.bands[c].minFrac*float64(f.fleetAlloc)))
	}
	best, bestBytes := -1, int64(0)
	for di, d := range f.devs {
		var lower int64
		for c := Low; c < j.Class; c++ {
			lower += min(d.held[c], allow[c])
		}
		// Prefer the device where the least victim memory must move.
		if d.pool.FreeBytes()+lower >= need && (best < 0 || lower < bestBytes) {
			best, bestBytes = di, lower
		}
	}
	if best < 0 {
		return -1
	}
	if !f.preemptOn(best, j, need-f.devs[best].pool.FreeBytes()) {
		return -1
	}
	return best
}

// preemptOn evicts strictly-lower-class victims from device di until at
// least need additional bytes are free. Victim order is deterministic:
// lowest class first, then largest footprint, then youngest (highest
// ID) — displace the cheapest priority at the fewest evictions.
func (f *Fleet) preemptOn(di int, j *Job, need int64) bool {
	d := f.devs[di]
	var victims []*Job
	for _, v := range d.jobs {
		if v.Class < j.Class {
			victims = append(victims, v)
		}
	}
	sort.Slice(victims, func(a, b int) bool {
		va, vb := victims[a], victims[b]
		if va.Class != vb.Class {
			return va.Class < vb.Class
		}
		if va.allocBytes != vb.allocBytes {
			return va.allocBytes > vb.allocBytes
		}
		return va.ID > vb.ID
	})
	var freed int64
	var freedByClass [numClasses]int64
	for _, v := range victims {
		if freed >= need {
			break
		}
		if f.preemptShielded(v.Class, freedByClass[v.Class], v.allocBytes) {
			continue // eviction would break the class's minFrac guarantee
		}
		freed += v.allocBytes
		freedByClass[v.Class] += v.allocBytes
		f.checkpoint(v)
		f.emitJobSpan(v, di, "running", v.admitAt, "preempt", v.allocBytes)
		if f.traced() {
			f.emitInstant(v, di, "preempt", "preempt", fmt.Sprintf("displaced by %s job %d", j.Class, j.ID), v.allocBytes)
		}
		f.evict(v)
		v.Preempted++
		f.met.Add(mPreemptions, 1)
		f.met.Add(mPreemptionsBy[v.Class], 1)
		if f.traced() {
			f.decide(v, "preempt", fmt.Sprintf("%s job %d displaces it on device %d", j.Class, j.ID, di), di, v.allocBytes)
		}
		f.queueInsert(v)
	}
	return freed >= need
}

// onComplete retires a finished job.
func (f *Fleet) onComplete(j *Job) {
	if j.State != StateRunning {
		return
	}
	j.workByteSec += float64(float64(j.allocBytes) * (sim.Time(j.Iters-j.DoneIters) * j.effIter).Seconds())
	j.DoneIters = j.Iters
	// Goodput counts only work that ends up in a completed job: killed
	// attempts of jobs that are eventually rejected are waste, however
	// many iterations they checkpointed along the way.
	f.goodput += j.workByteSec
	f.emitJobSpan(j, j.Device, "running", j.admitAt, "complete", j.allocBytes)
	f.releaseAllocs(j)
	delete(f.devs[j.Device].jobs, j.ID)
	j.Device = -1
	j.gen++
	j.State = StateCompleted
	j.Done = f.now
	f.met.Add(mCompleted, 1)
	f.met.Add(mCompletedBy[j.Class], 1)
	f.met.Observe(hJCTBy[j.Class], j.Done-j.Arrival)
	if f.traced() {
		f.decide(j, "complete", fmt.Sprintf("%d iters, %d admissions, %d kills", j.Iters, j.Admissions, j.Kills), -1, 0)
	}
	f.drainQueue()
}

// reject terminally fails a job.
func (f *Fleet) reject(j *Job, reason string) {
	j.State = StateRejected
	j.Done = f.now
	f.met.Add(mRejected, 1)
	f.met.Add(mRejectedBy[j.Class], 1)
	f.decide(j, "reject", reason, -1, 0)
}

// checkAccounting verifies the no-double-accounting invariant at drain:
// every device pool is empty and the class ledgers, fleet-wide and per
// device, are zero.
func (f *Fleet) checkAccounting() error {
	for _, d := range f.devs {
		if u := d.pool.Used(); u != 0 {
			return fmt.Errorf("fleet: device %d holds %d bytes after drain", d.id, u)
		}
		if len(d.jobs) != 0 {
			return fmt.Errorf("fleet: device %d has %d resident jobs after drain", d.id, len(d.jobs))
		}
		for c, u := range d.held {
			if u != 0 {
				return fmt.Errorf("fleet: device %d class %s ledger holds %d bytes after drain", d.id, Class(c), u)
			}
		}
	}
	for c, u := range f.classUsed {
		if u != 0 {
			return fmt.Errorf("fleet: class %s ledger holds %d bytes after drain", Class(c), u)
		}
	}
	for _, j := range f.jobs {
		if j.State != StateCompleted && j.State != StateRejected {
			return fmt.Errorf("fleet: job %d ended in state %s", j.ID, j.State)
		}
	}
	return nil
}
