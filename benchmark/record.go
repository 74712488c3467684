package main

import (
	"hash/crc32"
	"math"
	"math/rand"
)

// Records are 128-byte newline-free ASCII: a 16-hex sequence number whose
// top byte is the phase tag, a 16-hex due-time in unix nanoseconds (the
// scheduled send time, never the actual one), then 96 bytes of seeded
// filler. The tag rides in the record so the sink can book every
// completion against its phase without a control round-trip.
const (
	recordLen   = 128
	fillerLen   = recordLen - 32
	phaseShift  = 56
	counterMask = 1<<phaseShift - 1
)

// Phase tags (top byte of the sequence number).
const (
	phasePreseed = iota // WAL records written before the SUT boots
	phaseWarmup         // discarded
	phaseRate           // open loop: every latency metric
	phaseSat            // closed loop: goodput and CPU
	phaseCount
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const hexDigits = "0123456789abcdef"

// putHex16 writes v as 16 lowercase hex digits.
func putHex16(dst []byte, v uint64) {
	for i := 15; i >= 0; i-- {
		dst[i] = hexDigits[v&0xf]
		v >>= 4
	}
}

// hex16 decodes 16 hex digits; ok is false on any other byte.
func hex16(src []byte) (v uint64, ok bool) {
	if len(src) < 16 {
		return 0, false
	}
	for _, c := range src[:16] {
		var d byte
		switch {
		case c >= '0' && c <= '9':
			d = c - '0'
		case c >= 'a' && c <= 'f':
			d = c - 'a' + 10
		default:
			return 0, false
		}
		v = v<<4 | uint64(d)
	}
	return v, true
}

// recordMaker builds records for one seed. All of a run's randomness
// that reaches the SUT — filler bytes here, arrival schedules and client
// ids in schedule.go — derives from that seed.
type recordMaker struct {
	pool []byte // seeded hex filler; a record's filler is a window of it
}

func newRecordMaker(seed int64) *recordMaker {
	rng := rand.New(rand.NewSource(seed ^ 0x5eedf111))
	pool := make([]byte, 1<<16+fillerLen)
	for i := range pool {
		pool[i] = hexDigits[rng.Intn(16)]
	}
	return &recordMaker{pool: pool}
}

// build writes the record for (seq, due) into dst[:recordLen].
func (m *recordMaker) build(dst []byte, seq uint64, dueNS int64) {
	putHex16(dst[0:16], seq)
	putHex16(dst[16:32], uint64(dueNS))
	off := (seq * 0x9e3779b97f4a7c15) >> 48 // top 16 bits index the pool
	copy(dst[32:recordLen], m.pool[off:off+fillerLen])
}

// bookSum is the order-independent checksum both ends fold over the
// records they saw: the generator over what was acknowledged, the sink
// over what completed. Equal books mean the same set, intact.
type bookSum struct {
	Count  uint64 `json:"count"`
	XorSeq uint64 `json:"xor_seq"`
	SumSeq uint64 `json:"sum_seq"`
	SumCRC uint64 `json:"sum_crc"`
}

func (b *bookSum) add(seq uint64, crc uint32) {
	b.Count++
	b.XorSeq ^= seq
	b.SumSeq += seq
	b.SumCRC += uint64(crc)
}

func (b *bookSum) merge(o bookSum) {
	b.Count += o.Count
	b.XorSeq ^= o.XorSeq
	b.SumSeq += o.SumSeq
	b.SumCRC += o.SumCRC
}

// segment is one constant-rate stretch of an open-loop phase.
type segment struct {
	Rate    float64 // requests per second
	Seconds float64
}

// poissonOffsets draws the seeded open-loop schedule: request send
// offsets in nanoseconds from the phase start, exponential gaps at each
// segment's rate.
func poissonOffsets(rng *rand.Rand, segs []segment) []int64 {
	var out []int64
	base := 0.0
	for _, s := range segs {
		end := base + s.Seconds
		t := base
		for {
			t += rng.ExpFloat64() / s.Rate
			if t >= end {
				break
			}
			out = append(out, int64(t*1e9))
		}
		base = end
	}
	return out
}

// zipfIDs draws n client indices Zipf(s) over [0, universe).
func zipfIDs(rng *rand.Rand, s float64, universe, n int) []uint32 {
	z := rand.NewZipf(rng, s, 1, uint64(universe-1))
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(z.Uint64())
	}
	return out
}

// expDuration draws an exponential duration with the given mean,
// truncated at 8 means so one draw cannot stall a task for a whole phase.
func expDuration(rng *rand.Rand, meanNS float64) int64 {
	return int64(math.Min(rng.ExpFloat64(), 8) * meanNS)
}
