package fleet

import (
	"fmt"

	"capuchin/internal/obs"
	"capuchin/internal/sim"
)

// The fleet's obs.Metrics names. Counters follow the executor's
// slash-separated convention; per-class variants append the class name
// via classed ("fleet/kills/LOW"). The registry is the single source of
// truth for every Report counter — buildReport derives its fields from
// these, so the report and any Prometheus exposition of the registry can
// never disagree.
const (
	mJobs        = "fleet/jobs"
	mAdmissions  = "fleet/admissions"
	mCompleted   = "fleet/completed"
	mRejected    = "fleet/rejected"
	mShed        = "fleet/shed"
	mKills       = "fleet/kills"
	mPreemptions = "fleet/preemptions"
	mRequeues    = "fleet/requeues"
	mCapAbsorbs  = "fleet/cap-absorbs"

	// Histograms (virtual time): admission-queue wait and job completion
	// time, per tenant class.
	hQueueWait = "fleet/queue-wait"
	hJCT       = "fleet/jct"
)

// classed appends a tenant class to a metric name.
func classed(name string, c Class) string { return name + "/" + c.String() }

// The fleet timeline model. Every job gets its own lane ("job 17") so
// overlapping lifecycles never share a Chrome thread and B/E pairs nest
// trivially. Lanes live in two Perfetto processes: the "scheduler"
// process holds off-device phases (warmup sandbox, admission queue) and
// the queue-depth gauge, and each "device N" process holds the running
// spans of its resident jobs plus its memory counter tracks. Admissions,
// preemptions and OOM kills are lane instants on the device where they
// happened. All emission goes through these helpers and is nil-guarded,
// so an untraced fleet constructs no events at all.

// schedGroup is the Perfetto process for off-device job phases.
const schedGroup = "scheduler"

// traced reports whether a tracer is attached. Callers building trace
// strings with fmt.Sprintf check it first, so an untraced fleet formats
// nothing.
func (f *Fleet) traced() bool { return f.cfg.Tracer != nil }

// emit forwards one event when a tracer is attached.
func (f *Fleet) emit(ev obs.Event) {
	if f.cfg.Tracer != nil {
		f.cfg.Tracer.Emit(ev)
	}
}

// jobLane names a job's timeline lane.
func jobLane(j *Job) string { return fmt.Sprintf("job %d", j.ID) }

// deviceGroup names a device's Perfetto process.
func deviceGroup(dev int) string { return fmt.Sprintf("device %d", dev) }

// emitJobSpan records one closed lifecycle phase of j on lane "job N".
func (f *Fleet) emitJobSpan(j *Job, group, cat string, start sim.Time, detail string, bytes int64) {
	if f.cfg.Tracer == nil {
		return
	}
	f.emit(obs.Event{
		Kind: obs.KindSpan, Cat: cat, Name: j.Load.String(),
		Lane: jobLane(j), Group: group,
		Start: start, End: f.now,
		Tensor: fmt.Sprintf("job-%d", j.ID), Bytes: bytes, Detail: detail,
	})
}

// emitInstant records a point event on j's lane in a device process.
func (f *Fleet) emitInstant(j *Job, dev int, cat, name, detail string, bytes int64) {
	if f.cfg.Tracer == nil {
		return
	}
	f.emit(obs.Event{
		Kind: obs.KindInstant, Cat: cat, Name: name,
		Lane: jobLane(j), Group: deviceGroup(dev),
		Start: f.now, End: f.now,
		Tensor: fmt.Sprintf("job-%d", j.ID), Bytes: bytes, Detail: detail,
	})
}

// emitQueueDepth samples the admission-queue depth gauge.
func (f *Fleet) emitQueueDepth() {
	if f.cfg.Tracer == nil {
		return
	}
	f.emit(obs.Event{
		Kind: obs.KindCounter, Cat: "gauge", Name: "queue depth",
		Group: schedGroup, Start: f.now, End: f.now,
		Bytes: int64(len(f.queued)),
	})
}

// emitDeviceMemory samples device dev's allocator counters.
func (f *Fleet) emitDeviceMemory(dev int) {
	if f.cfg.Tracer == nil {
		return
	}
	pool := f.devs[dev].pool
	f.emit(obs.Event{
		Kind: obs.KindCounter, Group: deviceGroup(dev),
		Start: f.now, End: f.now,
		Used: pool.Used(), Free: pool.FreeBytes(), LargestFree: pool.LargestFree(),
	})
}

// Metrics exposes the fleet's registry — populated whether or not a
// tracer is attached — for Prometheus exposition and aggregation.
func (f *Fleet) Metrics() *obs.Metrics { return f.met }
