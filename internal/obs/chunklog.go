package obs

// eventChunk is the number of records in one chunk of a chunkLog: 127
// Events of 192 B plus the 8 B header the runtime puts on a pointer-bearing
// object fill one 24 KiB small-object size class. 128 would spill into the
// 27 KiB class and leave a tenth of every chunk empty.
const eventChunk = 127

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
