package engine

import "unsafe"

// Slab is the bump allocator one connection reader decodes tuple payloads
// into — the worker tier's frame readers and the ingest front door's
// listeners and replay. Every Values and []byte is carved off the unused
// tail of the current chunk with a full slice expression (cap == len, so a
// bolt's append can never write into a neighbour), and a chunk too full for
// the next carve is dropped and replaced — never rewound, never pooled.
// Carved memory is therefore ordinary GC-owned memory its receiver may keep
// forever; the price is that a retained value keeps its whole chunk alive.
// Anything above a quarter chunk gets its own allocation.
//
// The interface boxes of the values are carved too: Box* writes a value
// into the next slot of a chunk of its own type and returns an any whose
// data word points at that slot — what Go's conversion would have
// allocated. The slot is never written again, so the box is as immutable as
// one Go makes. The zero value is ready; a Slab belongs to one goroutine.
type Slab struct {
	vals []any  // unused tail of the current value chunk
	buf  []byte // unused tail of the current byte chunk

	// The box chunks, one per boxed type.
	bytesBox [][]byte
	ints     []int
	int64s   []int64
	uint64s  []uint64
	float64s []float64
	strings  []string
}

// Slab chunk sizes: 256 interface slots (4 KiB), 32 KiB of payload bytes,
// and 256 slots in each box chunk (6 KiB of []byte headers). Exported for
// the readers' heap-bound fuzzers, which size their bounds by the chunk.
const (
	SlabValuesChunk = 256
	SlabBytesChunk  = 32 << 10
	SlabBoxChunk    = 256
)

// Values carves a zeroed n-field payload.
func (s *Slab) Values(n int) Values { return carve(&s.vals, SlabValuesChunk, n) }

// Bytes carves a zeroed n-byte record.
func (s *Slab) Bytes(n int) []byte { return carve(&s.buf, SlabBytesChunk, n) }

// BoxBytes boxes b's header (not its bytes) into the slab.
func (s *Slab) BoxBytes(b []byte) any { return box(&s.bytesBox, b) }

// BoxInt boxes v into the slab.
func (s *Slab) BoxInt(v int) any { return box(&s.ints, v) }

// BoxInt64 boxes v into the slab.
func (s *Slab) BoxInt64(v int64) any { return box(&s.int64s, v) }

// BoxUint64 boxes v into the slab.
func (s *Slab) BoxUint64(v uint64) any { return box(&s.uint64s, v) }

// BoxFloat64 boxes v into the slab.
func (s *Slab) BoxFloat64(v float64) any { return box(&s.float64s, v) }

// BoxString copies src into bytes carved from the slab and boxes the string
// over them. Those bytes are never handed out as a []byte, so the string is
// as immutable as one string(src) makes.
func (s *Slab) BoxString(src []byte) any {
	b := s.Bytes(len(src))
	copy(b, src)
	return box(&s.strings, unsafe.String(unsafe.SliceData(b), len(b)))
}

// carve returns a zeroed n-element slice with cap == len, cut from *chunk
// (refilled with a fresh size-element chunk when n does not fit) or, above a
// quarter chunk, allocated on its own. A nil chunk is refilled even for
// n == 0, so an empty payload decodes to an empty non-nil slice, as make did.
func carve[T any](chunk *[]T, size, n int) []T {
	if n > size/4 {
		return make([]T, n)
	}
	if n > len(*chunk) || *chunk == nil {
		*chunk = make([]T, size)
	}
	out := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return out
}

// boxed is the closed set of types box serves. None is pointer-shaped: an
// any holding one has a pointer to the value in its data word. (A pointer,
// map, chan or func is its own data word and must never go through box.)
type boxed interface {
	int | int64 | uint64 | float64 | string | []byte
}

// eface is the runtime layout of an any: its type word and its data word.
type eface struct {
	typ, data unsafe.Pointer
}

// box writes v into the next slot of *chunk and returns that slot boxed: an
// any whose type word is T's and whose data word points at the slot. The
// chunk's element type is T, so the collector scans the slot with T's
// pointer map, and the data word — an interior pointer — keeps the chunk
// alive. It and BoxString are the module's only unsafe code (DESIGN.md §14).
func box[T boxed](chunk *[]T, v T) any {
	p := &carve(chunk, SlabBoxChunk, 1)[0]
	*p = v
	x := any(*new(T)) // T's type word; Go boxes a zero value without allocating
	(*eface)(unsafe.Pointer(&x)).data = unsafe.Pointer(p)
	return x
}
