package obs

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"capuchin/internal/sim"
)

// FuzzCollectorRoundTrip decodes a byte tape into interleaved Emit and
// Decide calls with arbitrary strings and integers, and reading cuts,
// and checks what TestCollectorChunkBoundaries and
// TestAppendJSONLMatchesTracer check: every cut of AppendJSONL equals a
// teed JSONLTracer, and Events() reads back exactly what was emitted.
//
// The tape is a sequence of records. A record's first byte picks a
// decision (bit 0) and a reading cut after it (bit 7). Each string field
// then takes a length byte and that many bytes; length 255 instead reads
// a 16-bit count n and a fill byte and repeats the byte 2n times, so a
// short tape can cross and exactly reach arena chunk boundaries. Each
// integer field takes 8 little-endian bytes, and each float the bits of
// one. A tape that runs out reads zeros.
func FuzzCollectorRoundTrip(f *testing.F) {
	long := func(n uint16, b byte) []byte { return []byte{255, byte(n), byte(n >> 8), b} }
	f.Add([]byte{})
	f.Add([]byte{0x80, 5, 'a', 'l', 'l', 'o', 'c', 7, 'a', 'l', 'l', 'o', 'c', ' ', 'x', 0, 0, 1, 'x'})
	f.Add(append(append([]byte{0x81}, long(arenaChunk/2, 'z')...), 0x80, 1, 'q'))
	f.Add(append(append([]byte{0x80, 0}, long(arenaChunk/2-2, 'y')...), 0x80, 3, 'a', 'b', 'c'))
	f.Add([]byte{0x81, 3, '<', '&', '>', 2, '"', '\\', 1, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		tp := tape{data: data}
		var recs []tapeRecord
		for len(tp.data) > 0 && len(recs) < 64 {
			op := tp.byte()
			r := tapeRecord{decision: op&1 == 1, cut: op&0x80 != 0}
			if r.decision {
				r.d = Decision{
					Policy: tp.str(), Group: tp.str(), Tensor: tp.str(), Action: tp.str(), Class: tp.str(), Reason: tp.str(),
					Iter: int(tp.int()), At: sim.Time(tp.int()), FreeTime: sim.Time(tp.int()), BackAccess: sim.Time(tp.int()),
					Candidates: int(tp.int()), Bytes: tp.int(), CommUntil: sim.Time(tp.int()),
					MSPS: math.Float64frombits(uint64(tp.int())), CommSlowdown: math.Float64frombits(uint64(tp.int())),
				}
			} else {
				r.ev = Event{
					Kind: EventKind(op >> 1), Cat: tp.str(), Name: tp.str(), Lane: tp.str(), Group: tp.str(),
					Tensor: tp.str(), Node: tp.str(), Detail: tp.str(),
					Start: sim.Time(tp.int()), End: sim.Time(tp.int()), Queued: sim.Time(tp.int()), Iter: int(tp.int()),
					Bytes: tp.int(), Used: tp.int(), Free: tp.int(), LargestFree: tp.int(), HostUsed: tp.int(),
				}
			}
			recs = append(recs, r)
		}
		checkTape(t, recs)
	})
}

// tape is FuzzCollectorRoundTrip's decoder over the fuzzer's bytes.
type tape struct{ data []byte }

func (tp *tape) byte() byte {
	if len(tp.data) == 0 {
		return 0
	}
	b := tp.data[0]
	tp.data = tp.data[1:]
	return b
}

func (tp *tape) str() string {
	n := int(tp.byte())
	if n == 255 {
		n = int(tp.byte()) | int(tp.byte())<<8
		return string(bytes.Repeat([]byte{tp.byte()}, 2*n))
	}
	n = min(n, len(tp.data))
	s := string(tp.data[:n])
	tp.data = tp.data[n:]
	return s
}

func (tp *tape) int() int64 {
	var b [8]byte
	tp.data = tp.data[copy(b[:], tp.data):]
	return int64(binary.LittleEndian.Uint64(b[:]))
}
