package engine

// Slab is the bump allocator one connection reader decodes tuple payloads
// into — the worker tier's frame readers and the ingest front door's TCP
// loop. Every Values and []byte is carved off the unused tail of the
// current chunk with a full slice expression (cap == len, so a bolt's
// append can never write into a neighbour), and a chunk too full for the
// next carve is dropped and replaced — never rewound, never pooled. Carved
// memory is therefore ordinary GC-owned memory its receiver may keep
// forever; the price is that a retained value keeps its whole chunk alive.
// Anything above a quarter chunk gets its own allocation. The zero value is
// ready; a Slab belongs to one goroutine.
type Slab struct {
	vals []any  // unused tail of the current value chunk
	buf  []byte // unused tail of the current byte chunk
}

// Slab chunk sizes: 256 interface slots (4 KiB) and 32 KiB of payload
// bytes. Exported for the readers' heap-bound fuzzers, which size their
// bounds by the chunk.
const (
	SlabValuesChunk = 256
	SlabBytesChunk  = 32 << 10
)

// Values carves a zeroed n-field payload.
func (s *Slab) Values(n int) Values { return carve(&s.vals, SlabValuesChunk, n) }

// Bytes carves a zeroed n-byte record.
func (s *Slab) Bytes(n int) []byte { return carve(&s.buf, SlabBytesChunk, n) }

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
