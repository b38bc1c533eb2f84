package obs

import (
	"unsafe"

	"capuchin/internal/sim"
)

// eventChunk is the number of records in one chunk of a chunkLog: 120
// event records of 136 B fill 16,320 B of the 16 KiB size class. Event
// records hold no pointers, so the runtime allocates their chunks as
// noscan objects without a header, and the GC never scans them.
const eventChunk = 120

// chunkLog is an append-only sequence stored in fixed-size chunks. A
// chunk is allocated once and is never moved or resized, so append writes
// in place and never copies the records before it.
//
// A copy of the struct is a snapshot: the records below its length are
// never written again, and later appends fill only slots above it (or
// append chunk pointers past the snapshot's slice length), so a reader may
// index a snapshot taken under the owner's lock after releasing it.
type chunkLog[T any] struct {
	chunks []*[eventChunk]T
	n      int
}

// append adds v at the end of the log.
func (l *chunkLog[T]) append(v T) {
	if l.n == len(l.chunks)*eventChunk {
		l.chunks = append(l.chunks, new([eventChunk]T))
	}
	l.chunks[l.n/eventChunk][l.n%eventChunk] = v
	l.n++
}

// at returns the i-th record; i must be below the log's length.
func (l *chunkLog[T]) at(i int) T { return l.chunks[i/eventChunk][i%eventChunk] }

// slice returns the records as one exact-size slice.
func (l *chunkLog[T]) slice() []T {
	out := make([]T, l.n)
	for k, ch := range l.chunks {
		copy(out[k*eventChunk:], ch[:])
	}
	return out
}

// bytes reports the memory the log's chunks occupy.
func (l *chunkLog[T]) bytes() int64 {
	var zero T
	return int64(len(l.chunks)) * eventChunk * int64(unsafe.Sizeof(zero))
}

// arenaChunk is the size of one arena chunk: 32 KiB, the largest
// small-object size class, so no rounding is lost on it. A serve-menu
// run simulated in full stores 113 KB of strings on average (iterations
// Collector.Repeat copies add none); the 16 KiB its last chunk leaves
// empty on average is a small share of that.
const arenaChunk = 32 << 10

// strRef locates a string in an arena by its byte offset and length. The
// zero strRef is the empty string.
type strRef struct{ off, len uint32 }

// arena is an append-only byte store for the strings of a Collector's
// event records. Chunk k starts at offset k*arenaChunk. A string never
// straddles two allocations: one that does not fit in the rest of the
// last allocation starts a new one, and one longer than a chunk gets an
// allocation of whole chunks to itself, registered as consecutive chunks
// that each run to its end. Offsets are 32-bit, so an arena holds at most
// 4 GiB.
//
// Bytes below n are never written again, so like a chunkLog a copy of
// the struct is a snapshot that may be read after the owner's lock is
// released, and strings read from it alias the arena without copying.
type arena struct {
	chunks [][]byte
	n      int
}

// add copies s into the arena and returns its reference.
func (a *arena) add(s string) strRef {
	if s == "" {
		return strRef{}
	}
	if end := len(a.chunks) * arenaChunk; a.n+len(s) > end {
		size := (len(s) + arenaChunk - 1) / arenaChunk * arenaChunk
		if int64(end)+int64(size) > 1<<32 {
			panic("obs: event string arena exceeds 4 GiB")
		}
		a.n = end
		buf := make([]byte, size)
		for k := 0; k < size; k += arenaChunk {
			a.chunks = append(a.chunks, buf[k:])
		}
	}
	r := strRef{off: uint32(a.n), len: uint32(len(s))}
	copy(a.chunks[a.n/arenaChunk][a.n%arenaChunk:], s)
	a.n += len(s)
	return r
}

// str returns the string r refers to, aliasing the arena's bytes.
func (a *arena) str(r strRef) string {
	if r.len == 0 {
		return ""
	}
	b := a.chunks[r.off/arenaChunk][r.off%arenaChunk:][:r.len]
	return unsafe.String(&b[0], len(b))
}

// bytes reports the memory the arena's chunks occupy.
func (a *arena) bytes() int64 { return int64(len(a.chunks)) * arenaChunk }

// lastString is one string field's reuse slot: the string that field
// last stored and where. Holding the string keeps its bytes alive, so a
// later string with the same data pointer and length has the same
// contents and can share the stored copy.
type lastString struct {
	s   string
	ref strRef
}

// put returns the reference of s, one field of an event whose name is
// stored at nameRef. s shares bytes already stored when it is the slot's
// last string, or a suffix or prefix of the name (a tensor or node ID
// after "swapin ", "alloc " or "recompute "; a category before its
// name's qualifier); otherwise it is copied into the arena. It compares
// pointers, lengths and at most two substrings of the name, and never
// hashes.
func (a *arena) put(last *lastString, s, name string, nameRef strRef) strRef {
	if s == "" {
		return strRef{}
	}
	if len(s) == len(last.s) && unsafe.StringData(s) == unsafe.StringData(last.s) {
		return last.ref
	}
	var r strRef
	switch {
	case len(s) > len(name):
		r = a.add(s)
	case name[len(name)-len(s):] == s:
		r = strRef{off: nameRef.off + uint32(len(name)-len(s)), len: uint32(len(s))}
	case name[:len(s)] == s:
		r = strRef{off: nameRef.off, len: uint32(len(s))}
	default:
		r = a.add(s)
	}
	last.s, last.ref = s, r
	return r
}

// eventRec is an Event as a Collector stores it: the integers as they
// are and each string as a strRef into the Collector's arena. It holds no
// Go pointer.
type eventRec struct {
	start, end, queued                       sim.Time
	iter                                     int
	bytes, used, free, largestFree, hostUsed int64
	cat, name, lane, group, tensor, node     strRef
	detail                                   strRef
	kind                                     EventKind
}

// event decodes r against the arena its strings live in.
func (a *arena) event(r eventRec) Event {
	return Event{
		Kind: r.kind, Cat: a.str(r.cat), Name: a.str(r.name), Lane: a.str(r.lane), Group: a.str(r.group),
		Start: r.start, End: r.end, Queued: r.queued, Iter: r.iter,
		Tensor: a.str(r.tensor), Node: a.str(r.node), Bytes: r.bytes,
		Used: r.used, Free: r.free, LargestFree: r.largestFree, HostUsed: r.hostUsed,
		Detail: a.str(r.detail),
	}
}
