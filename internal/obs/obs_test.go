package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"capuchin/internal/sim"
)

func TestCollectorCopies(t *testing.T) {
	c := NewCollector()
	c.Emit(Event{Name: "a"})
	c.Decide(Decision{Tensor: "t1"})

	evs := c.Events()
	evs[0].Name = "mutated"
	if got := c.Events()[0].Name; got != "a" {
		t.Fatalf("Events() does not return a copy: got %q", got)
	}
	ds := c.Decisions()
	ds[0].Tensor = "mutated"
	if got := c.Decisions()[0].Tensor; got != "t1" {
		t.Fatalf("Decisions() does not return a copy: got %q", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", c.Len())
	}
}

// tapeRecord is one step of a recording replayed by checkTape: an event
// or, when decision is set, a decision, and whether a reader renders
// AppendJSONL right after it.
type tapeRecord struct {
	decision bool
	ev       Event
	d        Decision
	cut      bool
}

// checkTape records tape into a Collector teed with a JSONLTracer and
// checks the two properties the log must keep: at every cut, the lines
// AppendJSONL has rendered so far equal the tracer's bytes (including a
// stream a NaN cuts short), and at the end Events() reads back exactly
// what was emitted.
func checkTape(t testing.TB, tape []tapeRecord) {
	t.Helper()
	c := NewCollector()
	var want bytes.Buffer
	tr := Tee(c, NewJSONLTracer(&want))
	var got []byte
	var cur Cursor
	var evs []Event
	for i, r := range append(tape, tapeRecord{decision: true, d: Decision{Action: "end"}, cut: true}) {
		if r.decision {
			tr.Decide(r.d)
		} else {
			tr.Emit(r.ev)
			evs = append(evs, r.ev)
		}
		if r.cut {
			got, cur, _ = c.AppendJSONL(got, cur)
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("record %d: AppendJSONL rendered %d bytes, JSONLTracer wrote %d", i, len(got), want.Len())
			}
		}
	}
	if gotEvs := c.Events(); len(gotEvs) != len(evs) || len(evs) > 0 && !reflect.DeepEqual(gotEvs, evs) {
		t.Fatalf("Events() read back %d events unlike the %d emitted", len(gotEvs), len(evs))
	}
	if min := int64(len(evs))*int64(unsafe.Sizeof(eventRec{})) + int64(c.strs.n); c.Bytes() < min {
		t.Fatalf("Bytes() = %d, below the %d bytes of records and strings", c.Bytes(), min)
	}
}

// TestCollectorChunkBoundaries: logs that end just before, on and just
// past a chunk boundary, or several chunks in, read back exactly as
// recorded, and the returned copies share no chunk with the log. So do
// event strings that end exactly at an arena chunk's end and the strings
// after them, strings that do not fit in the rest of a chunk, strings
// longer than a chunk, empty strings in every field and bytes JSON must
// escape, through Events() and through AppendJSONL cut after every
// record.
func TestCollectorChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, eventChunk - 1, eventChunk, eventChunk + 1, 3*eventChunk + 5} {
		c := NewCollector()
		var evs []Event
		var ds []Decision
		for i := 0; i < n; i++ {
			ev := Event{Kind: KindSpan, Name: fmt.Sprintf("e%d", i), Start: sim.Time(i), End: sim.Time(i + 1), Bytes: int64(i)}
			d := Decision{Iter: i, Tensor: fmt.Sprintf("t%d", i), Action: "plan-swap"}
			if i%2 == 1 {
				c.Decide(d)
			}
			c.Emit(ev)
			if i%2 == 0 {
				c.Decide(d)
			}
			evs, ds = append(evs, ev), append(ds, d)
		}
		if c.Len() != n {
			t.Fatalf("n=%d: Len() = %d", n, c.Len())
		}
		gotEvs, gotDs := c.Events(), c.Decisions()
		if !slices.Equal(gotEvs, evs) || !slices.Equal(gotDs, ds) {
			t.Fatalf("n=%d: read back %d events and %d decisions unlike the %d recorded", n, len(gotEvs), len(gotDs), n)
		}
		for i := range gotEvs {
			gotEvs[i].Name = "mutated"
			gotDs[i].Tensor = "mutated"
		}
		if !slices.Equal(c.Events(), evs) || !slices.Equal(c.Decisions(), ds) {
			t.Fatalf("n=%d: mutating the returned copies reached the log", n)
		}
	}

	fill := func(n int, b byte) string { return strings.Repeat(string(b), n) }
	ev := func(name, tensor string) tapeRecord {
		return tapeRecord{ev: Event{Kind: KindInstant, Cat: "alloc", Name: name, Tensor: tensor, Start: 1, End: 1}, cut: true}
	}
	tapes := map[string][]tapeRecord{
		"ends at chunk end": {
			ev(fill(arenaChunk-len("alloc"), 'a'), ""), ev("next", "t0"),
		},
		"ends at chunk end, then a shared suffix": {
			ev("x", ""), ev(fill(arenaChunk-len("alloc")-1, 'b'), "bb"), ev("alloc t1", "t1"),
		},
		"one byte short of fitting": {
			ev(fill(arenaChunk-len("alloc")-1, 'c'), ""), ev("ab", ""), ev("cd", "t2"),
		},
		"longer than a chunk": {
			ev("before", "t3"), ev(fill(2*arenaChunk+17, 'd'), "dd"), ev("tail of the long allocation", ""),
			ev(fill(arenaChunk, 'e'), ""), ev("after", "t4"),
		},
		"exactly two chunks": {
			ev(fill(2*arenaChunk, 'f'), ""), ev("after", "t5"),
		},
		"empty strings in every field": {
			{ev: Event{}, cut: true}, {decision: true, d: Decision{}, cut: true},
			{ev: Event{Kind: KindCounter, Start: -1, End: -2, Queued: -3, Iter: -4, Bytes: -5, Used: -6, Free: -7, LargestFree: -8, HostUsed: -9}},
		},
		"bytes JSON must escape": {
			{ev: Event{Kind: KindSpan, Cat: "<&>", Name: "\"quoted\" \\ \n\t\x00\x1f\u2028", Lane: "\xff\xfe",
				Group: "<group>", Tensor: "\u2029", Node: "\"", Detail: "a&b"}, cut: true},
			{decision: true, d: Decision{Policy: "<p>", Tensor: "\"t\"", Action: "\x00", Reason: "\xc3\x28"}, cut: true},
		},
	}
	for name, tape := range tapes {
		t.Run(name, func(t *testing.T) { checkTape(t, tape) })
	}

	// The first case's long name fills the first chunk exactly.
	c := NewCollector()
	c.Emit(Event{Cat: "alloc", Name: fill(arenaChunk-len("alloc"), 'a')})
	if c.strs.n != arenaChunk || len(c.strs.chunks) != 1 {
		t.Fatalf("arena at %d bytes in %d chunks, want %d in 1", c.strs.n, len(c.strs.chunks), arenaChunk)
	}
}

// TestCollectorRecordHoldsNoPointers: the record a Collector stores per
// event holds no field that can hold a Go pointer, so the runtime
// allocates its chunks as noscan memory and a stored run's history is no
// GC work.
func TestCollectorRecordHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface,
			reflect.Chan, reflect.Func, reflect.UnsafePointer:
			t.Errorf("%s is a %s, which can hold a pointer", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	var c Collector
	rec := reflect.TypeOf(c.events.chunks).Elem().Elem().Elem()
	walk(rec.Name(), rec)
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Emit(Event{Name: "e"})
				c.Decide(Decision{Action: "d"})
				_ = c.Len()
			}
		}()
	}
	wg.Wait()
	if c.Len() != 800 {
		t.Fatalf("Len() = %d, want 800", c.Len())
	}
}

// TestAppendJSONLMatchesTracer is the property behind capuchin-serve's
// /events: over seeded random Emit/Decide interleavings that run several
// chunks long, read back through AppendJSONL cut at random points and
// wherever a log fills a chunk exactly, the lines rendered so far equal
// what a JSONLTracer teed onto the same stream has written — including a
// stream a NaN cuts short. Event names are long enough, and sometimes
// longer than an arena chunk, that the string arena crosses several
// chunk boundaries too, and some fields are empty or need escaping.
func TestAppendJSONLMatchesTracer(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		var tape []tapeRecord
		var events, decisions int
		for i, n := 0, rng.IntN(4*eventChunk+1); i < n; i++ {
			var r tapeRecord
			chunkFull := false
			if rng.IntN(3) == 0 {
				r = tapeRecord{decision: true, d: Decision{Iter: i / 50, At: sim.Time(i), Policy: "capuchin", Tensor: fmt.Sprintf("t%d", rng.IntN(20)),
					Action: "plan-swap", FreeTime: sim.Time(rng.Int64N(1000)), MSPS: rng.Float64()}}
				if rng.IntN(400) == 0 {
					r.d.MSPS = math.NaN() // unencodable: both readers stop here
				}
				decisions++
				chunkFull = decisions%eventChunk == 0
			} else {
				name := fmt.Sprintf("e%d:%s", i, strings.Repeat("n", rng.IntN(400)))
				if rng.IntN(500) == 0 {
					name = strings.Repeat("L", arenaChunk+rng.IntN(arenaChunk))
				}
				tensor := ""
				if rng.IntN(2) == 0 {
					tensor = name[rng.IntN(len(name)):]
				}
				r = tapeRecord{ev: Event{Kind: EventKind(rng.IntN(3)), Cat: "alloc", Name: name, Tensor: tensor,
					Start: sim.Time(i), End: sim.Time(i + rng.IntN(5)), Bytes: rng.Int64N(1 << 20), Detail: "<&>"}}
				events++
				chunkFull = events%eventChunk == 0
			}
			r.cut = chunkFull || rng.IntN(10) == 0
			tape = append(tape, r)
		}
		checkTape(t, tape)
	}
}

// TestAppendJSONLWake: the channel AppendJSONL returns closes on the next
// Emit or Decide, and a reader following a concurrent writer through it
// sees the whole stream.
func TestAppendJSONLWake(t *testing.T) {
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	c := NewCollector()
	for _, record := range []func(){
		func() { c.Emit(Event{Name: "e"}) },
		func() { c.Decide(Decision{Action: "d"}) },
	} {
		_, _, wake := c.AppendJSONL(nil, Cursor{})
		if closed(wake) {
			t.Fatal("wake closed before any new record")
		}
		record()
		if !closed(wake) {
			t.Fatal("a new record did not close wake")
		}
	}

	c = NewCollector()
	var want bytes.Buffer
	tr := Tee(c, NewJSONLTracer(&want))
	done := make(chan struct{})
	go func() {
		for i := 0; i < 500; i++ {
			tr.Emit(Event{Name: fmt.Sprintf("e%d", i), Start: sim.Time(i)})
			if i%7 == 0 {
				tr.Decide(Decision{Action: "plan", At: sim.Time(i)})
			}
		}
		close(done)
	}()
	var got []byte
	var cur Cursor
	for {
		finished := closed(done)
		var wake <-chan struct{}
		got, cur, wake = c.AppendJSONL(got, cur)
		if finished {
			break
		}
		select {
		case <-wake:
		case <-done:
		}
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("live follower rendered %d bytes, JSONLTracer wrote %d", len(got), want.Len())
	}
}

// repeatWindow is copy k of one iteration's records, as Collector.Repeat
// must write it from copy 0: a decision before the first event, a kernel
// span with no queue time, a queued transfer, a decision between events,
// a free instant, and two decisions after the last event, one with a
// comm window.
func repeatWindow(k int, period sim.Time) []tapeRecord {
	at := func(t sim.Time) sim.Time { return t + sim.Time(k)*period }
	return []tapeRecord{
		{decision: true, d: Decision{Iter: k, At: at(10), Policy: "capuchin", Tensor: "conv1:0", Action: "prefetch"}},
		{ev: Event{Kind: KindSpan, Cat: "kernel", Name: "conv1", Lane: "compute", Start: at(10), End: at(20), Iter: k, Node: "conv1"}},
		{ev: Event{Kind: KindSpan, Cat: "transfer", Name: "swapout conv1:0", Lane: "d2h", Start: at(22), End: at(30),
			Queued: at(20), Iter: k, Tensor: "conv1:0", Bytes: 4096}},
		{decision: true, d: Decision{Iter: k, At: at(25), Policy: "capuchin", Tensor: "conv1:0", Action: "swap-out", FreeTime: 7, BackAccess: 40}},
		{ev: Event{Kind: KindInstant, Cat: "free", Name: "free conv1:0", Start: at(31), End: at(31), Iter: k,
			Tensor: "conv1:0", Used: 100, Free: 200, LargestFree: 150}},
		{decision: true, d: Decision{Iter: k, At: at(40), Policy: "capuchin", Tensor: "conv1:0", Action: "advance-trigger"}},
		{decision: true, d: Decision{Iter: k, At: at(41), Policy: "capuchin", Action: "comm-defer", CommSlowdown: 2, CommUntil: at(45)}},
	}
}

// record replays tape into tr.
func record(tr Tracer, tape []tapeRecord) {
	for _, r := range tape {
		if r.decision {
			tr.Decide(r.d)
		} else {
			tr.Emit(r.ev)
		}
	}
}

// repeatPrelude is recorded before the mark, so Repeat must not copy it.
var repeatPrelude = []tapeRecord{
	{ev: Event{Kind: KindInstant, Cat: "alloc", Name: "alloc fc:w", Tensor: "fc:w", Detail: "persistent"}},
	{decision: true, d: Decision{Policy: "capuchin", Action: "plan"}},
}

// repeatTrailer is recorded after the window's end cursor, as
// Capuchin's plan decision is after the measured iteration's records,
// so Repeat must not copy it. It lands among the window's trailing
// decisions: all three sit after the window's last event.
var repeatTrailer = []tapeRecord{
	{decision: true, d: Decision{At: 42, Policy: "capuchin", Action: "plan", Candidates: 3}},
}

// repeatTrailers are the records after a window's end: none, where the
// window runs to the last record, and repeatTrailer.
var repeatTrailers = []struct {
	name    string
	records []tapeRecord
}{{"to-last-record", nil}, {"before-trailing-decision", repeatTrailer}}

// repeatedCollectors returns a Collector that recorded repeatPrelude,
// one window and trailer, then repeated the window times, and a
// Collector that recorded repeatPrelude, the window, trailer and the
// other times windows itself.
func repeatedCollectors(period sim.Time, times int, trailer []tapeRecord) (repeated, recorded *Collector) {
	repeated, recorded = NewCollector(), NewCollector()
	record(repeated, repeatPrelude)
	record(recorded, repeatPrelude)
	mark := repeated.Mark()
	record(repeated, repeatWindow(0, period))
	end := repeated.Mark()
	record(repeated, trailer)
	repeated.Repeat(mark, end, period, times)
	record(recorded, repeatWindow(0, period))
	record(recorded, trailer)
	for k := 1; k <= times; k++ {
		record(recorded, repeatWindow(k, period))
	}
	return repeated, recorded
}

// TestCollectorRepeatMatchesRecording: a window repeated by Repeat reads
// back, through Events, Decisions and AppendJSONL, exactly as the same
// records emitted one by one: times and iterations shifted per copy,
// decisions in their places among the events (those after the window's
// last event included, and each decision's count of events before it
// equal), a zero Queued left zero, and records after the window's end
// not copied.
func TestCollectorRepeatMatchesRecording(t *testing.T) {
	const period, times = 1000, 3
	for _, tr := range repeatTrailers {
		t.Run(tr.name, func(t *testing.T) {
			got, want := repeatedCollectors(period, times, tr.records)
			if !slices.Equal(got.Events(), want.Events()) || !slices.Equal(got.Decisions(), want.Decisions()) {
				t.Fatalf("repeated log reads back %d events and %d decisions unlike the %d and %d recorded",
					got.Len(), len(got.Decisions()), want.Len(), len(want.Decisions()))
			}
			if gotAt, wantAt := got.decAt.slice(), want.decAt.slice(); !slices.Equal(gotAt, wantAt) {
				t.Fatalf("decisions follow %v events, want %v", gotAt, wantAt)
			}
			gotJSONL, _, _ := got.AppendJSONL(nil, Cursor{})
			wantJSONL, _, _ := want.AppendJSONL(nil, Cursor{})
			if !bytes.Equal(gotJSONL, wantJSONL) {
				t.Fatalf("repeated log renders:\n%s\nrecorded log renders:\n%s", gotJSONL, wantJSONL)
			}
			var queued int
			for _, ev := range got.Events() {
				if ev.Queued != 0 {
					queued++
				}
			}
			if queued != times+1 {
				t.Errorf("%d events carry a queue time, want the %d transfers", queued, times+1)
			}
		})
	}
}

// TestAppendJSONLAcrossRepeat: a reader whose cursor stops anywhere in
// the window or its trailer, before the mark included, continues after
// Repeat to the bytes a single read renders, and the channel it waits
// on closes.
func TestAppendJSONLAcrossRepeat(t *testing.T) {
	const period, times = 1000, 2
	for _, tr := range repeatTrailers {
		t.Run(tr.name, func(t *testing.T) {
			_, want := repeatedCollectors(period, times, tr.records)
			wantJSONL, _, _ := want.AppendJSONL(nil, Cursor{})
			window := repeatWindow(0, period)
			tape := append(window, tr.records...)
			for cut := 0; cut <= len(tape); cut++ {
				c := NewCollector()
				record(c, repeatPrelude)
				mark := c.Mark()
				var (
					end  Cursor
					got  []byte
					cur  Cursor
					wake <-chan struct{}
				)
				for i := 0; i <= len(tape); i++ {
					if i == len(window) {
						end = c.Mark()
					}
					if i == cut {
						got, cur, wake = c.AppendJSONL(nil, Cursor{})
					}
					if i < len(tape) {
						record(c, tape[i:i+1])
					}
				}
				c.Repeat(mark, end, period, times)
				select {
				case <-wake:
				default:
					t.Fatalf("cut %d: a reader's wake channel stayed open", cut)
				}
				got, _, _ = c.AppendJSONL(got, cur)
				if !bytes.Equal(got, wantJSONL) {
					t.Fatalf("cut %d: a reader that stopped mid-window rendered %d bytes, a single read %d", cut, len(got), len(wantJSONL))
				}
			}
		})
	}
}

// TestCollectorRepeatAddsNoStrings: repeated records reuse the window's
// strings, so Bytes grows by record chunks only, here across several
// chunk boundaries, and the arena does not grow at all.
func TestCollectorRepeatAddsNoStrings(t *testing.T) {
	c := NewCollector()
	mark := c.Mark()
	record(c, repeatWindow(0, 1000))
	arenaLen, arenaBytes, before := c.strs.n, c.strs.bytes(), c.Bytes()
	records := func() int64 { return c.events.bytes() + c.decisions.bytes() + c.decAt.bytes() }
	recordsBefore := records()
	c.Repeat(mark, c.Mark(), 1000, 2*eventChunk)
	if c.Len() != 3*(2*eventChunk+1) {
		t.Fatalf("Len() = %d after repeating 3 events %d times", c.Len(), 2*eventChunk)
	}
	if c.strs.n != arenaLen || c.strs.bytes() != arenaBytes {
		t.Errorf("arena grew from %d to %d bytes", arenaLen, c.strs.n)
	}
	if grew := c.Bytes() - before; grew <= 0 || grew != records()-recordsBefore {
		t.Errorf("Bytes() grew by %d, want the %d bytes of new record chunks", grew, records()-recordsBefore)
	}
}

func TestFmtBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{1 << 10, "1.0KiB"},
		{1536, "1.5KiB"},
		{1 << 20, "1.0MiB"},
		{3 << 20, "3.0MiB"},
		{1 << 30, "1.00GiB"},
		{-1536, "-1.5KiB"},
	}
	for _, c := range cases {
		if got := FmtBytes(c.n); got != c.want {
			t.Errorf("FmtBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(500 * sim.Nanosecond) // bucket 0 (<1µs)
	h.Observe(1 * sim.Microsecond)  // bucket 1 ([1,2)µs)
	h.Observe(3 * sim.Microsecond)  // bucket 2 ([2,4)µs)
	h.Observe(100 * sim.Millisecond)

	if h.Count != 4 {
		t.Fatalf("Count = %d, want 4", h.Count)
	}
	if h.Buckets[0] != 1 || h.Buckets[1] != 1 || h.Buckets[2] != 1 {
		t.Fatalf("bucket layout wrong: %v", h.Buckets[:4])
	}
	if h.Min != 500*sim.Nanosecond || h.Max != 100*sim.Millisecond {
		t.Fatalf("min/max wrong: %v/%v", h.Min, h.Max)
	}
	if q := h.Quantile(0.5); q < 1*sim.Microsecond || q > 4*sim.Microsecond {
		t.Fatalf("p50 = %v, want within [1µs, 4µs]", q)
	}
	if q := h.Quantile(1); q != h.Max {
		t.Fatalf("p100 = %v, want max %v", q, h.Max)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(1 * sim.Microsecond)
	b.Observe(9 * sim.Millisecond)
	b.Observe(200 * sim.Nanosecond)
	a.Merge(&b)
	if a.Count != 3 || a.Min != 200*sim.Nanosecond || a.Max != 9*sim.Millisecond {
		t.Fatalf("merge wrong: count=%d min=%v max=%v", a.Count, a.Min, a.Max)
	}
}

func TestMetricsMergeAndText(t *testing.T) {
	m := NewMetrics()
	m.Add("faults/transfer", 2)
	m.Observe("kernel", 5*sim.Microsecond)

	o := NewMetrics()
	o.Add("faults/transfer", 3)
	o.Observe("kernel", 7*sim.Microsecond)
	o.Observe("stall/oom-wait-swapout", sim.Millisecond)

	m.Merge(o)
	m.Merge(nil)
	if got := m.Counter("faults/transfer"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	h, ok := m.Hist("kernel")
	if !ok || h.Count != 2 {
		t.Fatalf("kernel hist: ok=%v count=%d", ok, h.Count)
	}

	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"faults/transfer", "kernel", "stall/oom-wait-swapout"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
	// Deterministic output.
	var buf2 bytes.Buffer
	m.WriteText(&buf2)
	if buf.String() != buf2.String() {
		t.Fatal("WriteText is not deterministic")
	}
}

// TestBuildMetrics sends one event or decision of each kind through the
// fold and checks the metrics it lands in, or that it lands in none.
func TestBuildMetrics(t *testing.T) {
	span := func(cat, lane, detail string) Event {
		return Event{
			Kind: KindSpan, Cat: cat, Name: "x", Lane: lane, Detail: detail,
			Queued: sim.Microsecond, Start: 3 * sim.Microsecond, End: 10 * sim.Microsecond,
		}
	}
	instant := func(cat, name string) Event {
		return Event{Kind: KindInstant, Cat: cat, Name: name, Lane: "compute", Start: sim.Microsecond}
	}
	cases := []struct {
		name string
		ev   Event
		d    Decision
		want []string // "counter=N" and "hist:count/sum", sorted
	}{
		{name: "kernel span", ev: span("kernel", "compute", ""), want: []string{"kernel:1/7.00us"}},
		{name: "recompute span", ev: span("recompute", "compute", ""), want: []string{"recompute:1/7.00us"}},
		{name: "stall span", ev: span("stall", "compute", "passive-evict"), want: []string{"stall/passive-evict:1/7.00us"}},
		{name: "landed transfer", ev: span("transfer", "h2d", ""), want: []string{"transfer-queue/h2d:1/2.00us", "transfer/h2d:1/7.00us"}},
		{name: "aborted transfer", ev: span("transfer", "d2h", "aborted")},
		{name: "interconnect span", ev: span("allreduce", "interconnect", "")},
		{name: "fleet span", ev: span("running", "job 1", "complete")},
		{name: "kernel spike", ev: instant("fault", "kernel-spike"), want: []string{"faults/kernel-spike=1"}},
		{name: "alloc fault", ev: instant("fault", "alloc-fault"), want: []string{"faults/alloc=1"}},
		{name: "dma abort", ev: instant("fault", "dma-abort"), want: []string{"faults/transfer=1"}},
		{name: "host fault", ev: instant("fault", "host-fault"), want: []string{"faults/host=1"}},
		{name: "retry", ev: instant("fault", "retry")},
		{name: "oom recovered", ev: instant("oom", "oom-recovered"), want: []string{"oom/recoveries=1"}},
		{name: "oom", ev: instant("oom", "oom")},
		{name: "fleet oom kill", ev: instant("oom", "oom-kill")},
		{name: "access", ev: instant("access", "res0_relu1:0")},
		{name: "alloc", ev: instant("alloc", "alloc")},
		{name: "free", ev: instant("free", "free")},
		{name: "swap-out", d: Decision{Action: "swap-out"}, want: []string{"swap/out=1"}},
		{name: "prefetch", d: Decision{Action: "prefetch"}, want: []string{"swap/prefetch=1"}},
		{name: "ondemand-swapin", d: Decision{Action: "ondemand-swapin"}, want: []string{"swap/ondemand=1"}},
		{name: "fallback-recompute", d: Decision{Action: "fallback-recompute"}, want: []string{"fallback/recompute=1"}},
		{name: "passive-evict", d: Decision{Action: "passive-evict"}, want: []string{"evict/passive=1"}},
		{name: "comm-defer", d: Decision{Action: "comm-defer"}, want: []string{"comm/defer=1"}},
		{name: "prefetch-failed", d: Decision{Action: "prefetch-failed"}},
	}
	for _, c := range cases {
		var events []Event
		var decisions []Decision
		if c.d.Action != "" {
			decisions = []Decision{c.d}
		} else {
			events = []Event{c.ev}
		}
		m := BuildMetrics(events, decisions)
		var got []string
		for k, v := range m.counters {
			got = append(got, fmt.Sprintf("%s=%d", k, v))
		}
		for k, h := range m.hists {
			got = append(got, fmt.Sprintf("%s:%d/%v", k, h.Count, h.Sum))
		}
		slices.Sort(got)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: folded into %q, want %q", c.name, got, c.want)
		}
	}
}

// memEvents builds a tiny alloc/free stream with allocator samples.
func memEvents() []Event {
	mk := func(cat, tensor, detail string, at sim.Time, bytes, used, free, largest, host int64) Event {
		return Event{Kind: KindInstant, Cat: cat, Name: cat, Tensor: tensor, Detail: detail,
			Start: at, End: at, Bytes: bytes, Used: used, Free: free, LargestFree: largest, HostUsed: host}
	}
	return []Event{
		mk("alloc", "A", "produce", 10, 100, 100, 900, 900, 0),
		mk("alloc", "B", "produce", 20, 200, 300, 700, 600, 0),
		mk("free", "A", "evict", 30, 100, 200, 800, 600, 100),
		mk("alloc", "C", "produce", 40, 500, 700, 300, 300, 100),
		mk("free", "B", "dead", 50, 200, 500, 500, 300, 100),
		mk("alloc", "A", "ondemand", 60, 100, 600, 400, 300, 0),
	}
}

func TestBuildMemProfile(t *testing.T) {
	p := BuildMemProfile(memEvents())
	if p.PeakBytes != 700 || p.PeakAt != 40 {
		t.Fatalf("peak = %d at %v, want 700 at 40ns", p.PeakBytes, p.PeakAt)
	}
	if p.HostPeak != 100 {
		t.Fatalf("host peak = %d, want 100", p.HostPeak)
	}
	// At the peak (t=40) residents are B and C; A was evicted at t=30.
	if len(p.PeakResidents) != 2 {
		t.Fatalf("peak residents = %+v, want 2 entries", p.PeakResidents)
	}
	if p.PeakResidents[0].Tensor != "C" || p.PeakResidents[0].Bytes != 500 {
		t.Fatalf("largest resident = %+v, want C/500", p.PeakResidents[0])
	}
	if p.PeakResidents[1].Tensor != "B" {
		t.Fatalf("second resident = %+v, want B", p.PeakResidents[1])
	}
	// A has two residency intervals: produce→evict, then ondemand (open).
	spans := p.Residency["A"]
	if len(spans) != 2 {
		t.Fatalf("residency[A] = %+v, want 2 spans", spans)
	}
	if spans[0].How != "produce" || spans[0].Until != "evict" || spans[0].From != 10 || spans[0].To != 30 {
		t.Fatalf("first span of A = %+v", spans[0])
	}
	if spans[1].How != "ondemand" || spans[1].Until != "" {
		t.Fatalf("second span of A = %+v", spans[1])
	}
	if len(p.Frag) != 6 {
		t.Fatalf("frag samples = %d, want 6", len(p.Frag))
	}
	// Worst fragmentation: t=50, free 500 largest 300 → 0.4.
	worst, ok := p.MaxFragmentation()
	if !ok || worst.At != 50 || worst.Fragmentation != 0.4 {
		t.Fatalf("worst frag = %+v ok=%v, want 0.4 at t=50", worst, ok)
	}

	var buf bytes.Buffer
	if err := p.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"memory profile", "device peak: 700B", "C", "fragmentation", "most-churned"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report missing %q:\n%s", want, buf.String())
		}
	}
}

// TestEmptyMemProfileReportGolden pins the empty-profile report byte for
// byte. Before the empty-input guard, a profile built from zero memory
// events printed a misleading zero-valued report ("device peak: 0B at
// 0ns", "peak attribution (top 0 of 0 resident tensors):") instead of
// saying that nothing was recorded.
func TestEmptyMemProfileReportGolden(t *testing.T) {
	const golden = "== memory profile ==\nno memory events recorded\n"
	for name, p := range map[string]*MemProfile{
		"built":  BuildMemProfile(nil),
		"manual": {},
	} {
		var buf bytes.Buffer
		if err := p.WriteReport(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.String() != golden {
			t.Errorf("%s: empty-profile report =\n%q\nwant\n%q", name, buf.String(), golden)
		}
	}
	// A NaN can never appear in a profile's samples, whatever the inputs.
	p := BuildMemProfile([]Event{
		{Kind: KindInstant, Cat: "alloc", Tensor: "t0", Start: 1, Bytes: 64, Used: 64, Free: 0, LargestFree: 0},
	})
	for _, s := range p.Frag {
		if s.Fragmentation != s.Fragmentation { // NaN check
			t.Fatalf("NaN fragmentation in sample %+v", s)
		}
	}
}

func TestWriteExplain(t *testing.T) {
	decisions := []Decision{
		{Iter: 1, At: 100, Policy: "capuchin", Tensor: "conv1:out", Action: "plan-swap",
			Reason: "free-time hides transfer", FreeTime: 4 * sim.Microsecond, BackAccess: 9 * sim.Microsecond, Candidates: 5, Bytes: 1 << 20},
		{Iter: 1, At: 400, Policy: "capuchin", Tensor: "fc:out", Action: "plan-recompute", MSPS: 12.5},
	}
	events := []Event{
		{Kind: KindInstant, Cat: "alloc", Tensor: "conv1:out", Detail: "produce", Start: 50, End: 50, Bytes: 1 << 20, Iter: 1},
		{Kind: KindSpan, Cat: "transfer", Name: "d2h:conv1:out", Tensor: "conv1:out", Start: 120, End: 220, Queued: 110, Bytes: 1 << 20, Iter: 1},
		{Kind: KindInstant, Cat: "free", Tensor: "conv1:out", Detail: "swapout-complete", Start: 230, End: 230, Iter: 1},
	}

	var buf bytes.Buffer
	if err := WriteExplain(&buf, "conv1:out", decisions, events); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"conv1:out", "plan-swap", "free-time=4.00us", "candidates=5", "resident (produce", "released (swapout-complete)", "d2h:conv1:out"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "fc:out") {
		t.Errorf("explain leaked another tensor's decision:\n%s", out)
	}

	buf.Reset()
	if err := WriteExplain(&buf, "nosuch", decisions, events); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no recorded decisions") || !strings.Contains(buf.String(), "conv1:out") {
		t.Errorf("missing-tensor output should list known tensors:\n%s", buf.String())
	}

	tensors := ExplainTensors(decisions)
	if len(tensors) != 2 || tensors[0] != "conv1:out" || tensors[1] != "fc:out" {
		t.Fatalf("ExplainTensors = %v", tensors)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	events := []Event{
		{Kind: KindSpan, Cat: "kernel", Name: "conv1", Lane: "compute", Start: 0, End: 10 * sim.Microsecond, Iter: 0, Node: "conv1"},
		{Kind: KindSpan, Cat: "transfer", Name: "d2h:conv1:out", Lane: "d2h", Start: 2 * sim.Microsecond, End: 12 * sim.Microsecond, Queued: sim.Microsecond, Tensor: "conv1:out", Bytes: 1 << 20},
		{Kind: KindInstant, Cat: "fault", Name: "dma-abort", Lane: "d2h", Start: 12 * sim.Microsecond, End: 12 * sim.Microsecond, Detail: "injected"},
		{Kind: KindInstant, Cat: "alloc", Name: "alloc", Tensor: "conv1:out", Start: 0, End: 0, Bytes: 1 << 20, Used: 1 << 20, Free: 3 << 20, LargestFree: 3 << 20},
		{Kind: KindSpan, Cat: "kernel", Name: "conv2", Lane: "compute", Start: 10 * sim.Microsecond, End: 25 * sim.Microsecond, Iter: 0, Node: "conv2"},
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	// B/E events must balance per tid, and timestamps must be ordered.
	depth := make(map[int]int)
	lastTS := -1.0
	var sawInstant, sawCounter bool
	for _, r := range doc.TraceEvents {
		switch r.Ph {
		case "B":
			depth[r.TID]++
		case "E":
			depth[r.TID]--
			if depth[r.TID] < 0 {
				t.Fatalf("unmatched E on tid %d", r.TID)
			}
		case "i":
			sawInstant = true
		case "C":
			sawCounter = true
		case "M":
			continue
		}
		if r.TS < lastTS {
			t.Fatalf("timestamps not monotonic: %v after %v", r.TS, lastTS)
		}
		lastTS = r.TS
	}
	for tid, d := range depth {
		if d != 0 {
			t.Fatalf("unbalanced spans on tid %d: depth %d", tid, d)
		}
	}
	if !sawInstant || !sawCounter {
		t.Fatalf("missing instant (%v) or counter (%v) records", sawInstant, sawCounter)
	}

	// Determinism: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteChromeTrace is not deterministic")
	}

	// Transfer span carries queue-vs-wire breakdown.
	if !strings.Contains(buf.String(), "queue_wait_us") {
		t.Fatalf("transfer span missing queue_wait_us:\n%s", buf.String())
	}
}
