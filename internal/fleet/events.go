package fleet

import (
	"capuchin/internal/sim"
)

// eventKind discriminates scheduler events.
type eventKind int

const (
	// evArrive: a job enters the system and starts its sandbox warmup
	// (Predictive) or is considered immediately (AdmitAll).
	evArrive eventKind = iota
	// evProfiled: the sandbox warmup finished; the job joins the
	// admission queue with its prediction attached.
	evProfiled
	// evPeak: a running job finishes its on-device ramp and demands its
	// full realized footprint — the moment mispredictions surface.
	evPeak
	// evComplete: a running job finishes its remaining iterations.
	evComplete
	// evRequeue: a killed job's backoff expired; it rejoins the queue.
	evRequeue
)

// event is one scheduled state transition; its time lives in the queue's
// key. gen guards against staleness: a job's kills and preemptions bump
// job.gen, and events carrying an old generation are dropped on arrival,
// so a preempted job's in-flight completion can never fire.
type event struct {
	kind eventKind
	job  *Job
	gen  int
}

// eventQueue orders events by (time, insertion sequence) — the
// determinism backbone: ties in virtual time resolve by insertion order,
// never by map iteration or heap internals.
type eventQueue struct {
	sim.Heap[event]
	seq int64
}

func (q *eventQueue) push(at sim.Time, kind eventKind, j *Job, gen int) {
	q.Push(at, q.seq, event{kind: kind, job: j, gen: gen})
	q.seq++
}
