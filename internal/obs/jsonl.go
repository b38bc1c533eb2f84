package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
)

// JSONL encoding: one JSON object per line, suitable for tailing by an
// external process. Collector.AppendJSONL is the one renderer: the CLIs'
// -events files and capuchin-serve's /events stream are its output.
// Every record carries a "type" discriminator — "event" or "decision" —
// so a single stream can interleave both logs. Encoding is
// deterministic: fields appear in struct order, zero-valued optional
// fields are omitted, and virtual times are integer nanoseconds.

// jsonlEvent is the wire form of an Event.
type jsonlEvent struct {
	Type   string `json:"type"`
	Kind   string `json:"kind"`
	Cat    string `json:"cat,omitempty"`
	Name   string `json:"name,omitempty"`
	Lane   string `json:"lane,omitempty"`
	Group  string `json:"group,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end,omitempty"`
	Queued int64  `json:"queued,omitempty"`
	Iter   int    `json:"iter,omitempty"`
	Tensor string `json:"tensor,omitempty"`
	Node   string `json:"node,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Used   int64  `json:"used,omitempty"`
	Free   int64  `json:"free,omitempty"`
	Lrg    int64  `json:"largestFree,omitempty"`
	Host   int64  `json:"hostUsed,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// jsonlDecision is the wire form of a Decision.
type jsonlDecision struct {
	Type         string  `json:"type"`
	Iter         int     `json:"iter,omitempty"`
	At           int64   `json:"at"`
	Policy       string  `json:"policy,omitempty"`
	Group        string  `json:"group,omitempty"`
	Tensor       string  `json:"tensor,omitempty"`
	Action       string  `json:"action"`
	Class        string  `json:"class,omitempty"`
	Reason       string  `json:"reason,omitempty"`
	FreeTime     int64   `json:"freeTime,omitempty"`
	MSPS         float64 `json:"msps,omitempty"`
	BackAccess   int64   `json:"backAccess,omitempty"`
	Candidates   int     `json:"candidates,omitempty"`
	Bytes        int64   `json:"bytes,omitempty"`
	CommSlowdown float64 `json:"commSlowdown,omitempty"`
	CommUntil    int64   `json:"commUntil,omitempty"`
}

// kindName renders an EventKind for the wire.
func kindName(k EventKind) string {
	switch k {
	case KindSpan:
		return "span"
	case KindInstant:
		return "instant"
	case KindCounter:
		return "counter"
	}
	return "unknown"
}

func eventRecord(ev Event) jsonlEvent {
	return jsonlEvent{
		Type: "event", Kind: kindName(ev.Kind),
		Cat: ev.Cat, Name: ev.Name, Lane: ev.Lane, Group: ev.Group,
		Start: int64(ev.Start), End: int64(ev.End), Queued: int64(ev.Queued),
		Iter: ev.Iter, Tensor: ev.Tensor, Node: ev.Node, Bytes: ev.Bytes,
		Used: ev.Used, Free: ev.Free, Lrg: ev.LargestFree, Host: ev.HostUsed,
		Detail: ev.Detail,
	}
}

func decisionRecord(d Decision) jsonlDecision {
	return jsonlDecision{
		Type: "decision", Iter: d.Iter, At: int64(d.At),
		Policy: d.Policy, Group: d.Group, Tensor: d.Tensor, Action: d.Action,
		Class: d.Class, Reason: d.Reason,
		FreeTime: int64(d.FreeTime), MSPS: d.MSPS, BackAccess: int64(d.BackAccess),
		Candidates: d.Candidates, Bytes: d.Bytes,
		CommSlowdown: d.CommSlowdown, CommUntil: int64(d.CommUntil),
	}
}

// Cursor is a read position in a Collector's emission order: how many
// events and how many decisions a reader has already rendered. The zero
// Cursor is the start of the log.
type Cursor struct{ events, decisions int }

// AppendJSONL appends to dst the JSON lines of every record after cur,
// events and decisions interleaved in emission order, and returns the
// extended slice and the cursor past the last appended record. The bytes
// equal what a JSONLTracer attached to the same run writes for those
// records; rendering stops at a record that cannot be encoded (a NaN or
// infinite float), where that tracer's sticky error ends its stream.
//
// The returned channel closes on the next Emit or Decide, so a reader
// following a live run waits on it and calls again with the new cursor.
func (c *Collector) AppendJSONL(dst []byte, cur Cursor) ([]byte, Cursor, <-chan struct{}) {
	c.mu.Lock()
	// The logs and the string arena are append-only: the records and
	// bytes below these snapshots' lengths are never written again, so
	// they can be read after the lock is released while a run appends
	// above them.
	events, strs, decisions, decAt := c.events, c.strs, c.decisions, c.decAt
	if c.wake == nil {
		c.wake = make(chan struct{})
	}
	wake := c.wake
	c.mu.Unlock()

	buf := bytes.NewBuffer(dst)
	enc := json.NewEncoder(buf)
	for {
		var err error
		switch {
		case cur.decisions < decisions.n && decAt.at(cur.decisions) == cur.events:
			if err = enc.Encode(decisionRecord(decisions.at(cur.decisions))); err == nil {
				cur.decisions++
			}
		case cur.events < events.n:
			if err = enc.Encode(eventRecord(strs.event(events.at(cur.events)))); err == nil {
				cur.events++
			}
		default:
			return buf.Bytes(), cur, wake
		}
		if err != nil {
			return buf.Bytes(), cur, wake
		}
	}
}

// JSONLTracer is a Tracer that streams every event and decision to w as
// it is emitted, one JSON line each, instead of buffering them in
// memory. Encoding errors are sticky: the first one is kept, later
// emissions become no-ops, and Err reports it after the run — Emit and
// Decide cannot return errors without the executor knowing tracing
// exists.
type JSONLTracer struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

var _ Tracer = (*JSONLTracer)(nil)

// NewJSONLTracer returns a tracer streaming to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{enc: json.NewEncoder(w)}
}

// Emit implements Tracer.
func (t *JSONLTracer) Emit(ev Event) {
	t.mu.Lock()
	if t.err == nil {
		t.err = t.enc.Encode(eventRecord(ev))
	}
	t.mu.Unlock()
}

// Decide implements Tracer.
func (t *JSONLTracer) Decide(d Decision) {
	t.mu.Lock()
	if t.err == nil {
		t.err = t.enc.Encode(decisionRecord(d))
	}
	t.mu.Unlock()
}

// Err reports the first encoding error, if any.
func (t *JSONLTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
