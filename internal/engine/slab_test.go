package engine

import (
	"bytes"
	"testing"
)

// TestSlabCarveCannotReachNeighbour: carved Values and []byte have
// cap == len, so an append to either reallocates instead of writing into the
// next carve from the same chunk.
func TestSlabCarveCannotReachNeighbour(t *testing.T) {
	var s Slab
	v1, v2 := s.Values(2), s.Values(2)
	b1, b2 := s.Bytes(8), s.Bytes(8)
	if cap(v1) != len(v1) || cap(b1) != len(b1) {
		t.Fatalf("carved with spare capacity: Values cap %d len %d, []byte cap %d len %d", cap(v1), len(v1), cap(b1), len(b1))
	}
	_ = append(v1, "clobber", "clobber")
	_ = append(b1, bytes.Repeat([]byte{0xEE}, 8)...)
	if v2[0] != nil || v2[1] != nil || !bytes.Equal(b2, make([]byte, 8)) {
		t.Fatalf("append to a carve wrote into its neighbour: %v %v", v2, b2)
	}
}

// TestSlabNeverRewinds: a carve kept across many chunk replacements is
// never handed out again.
func TestSlabNeverRewinds(t *testing.T) {
	var s Slab
	keptV, keptB := s.Values(1), s.Bytes(100)
	keptV[0] = "kept"
	copy(keptB, bytes.Repeat([]byte{7}, 100))
	for i := 0; i < 20*SlabValuesChunk; i++ {
		s.Values(1)[0] = i
		b := s.Bytes(100)
		for j := range b {
			b[j] = 0xFF
		}
	}
	if keptV[0] != "kept" || !bytes.Equal(keptB, bytes.Repeat([]byte{7}, 100)) {
		t.Fatal("a retained carve was overwritten by a later one")
	}
}

// TestSlabLargeCarveOwnAllocation: anything above a quarter chunk is an
// allocation of its own and consumes no chunk; a quarter chunk exactly is
// still carved.
func TestSlabLargeCarveOwnAllocation(t *testing.T) {
	var s Slab
	s.Values(1)
	s.Bytes(1) // open both chunks
	vals, buf := len(s.vals), len(s.buf)
	if got := s.Bytes(SlabBytesChunk/4 + 1); len(got) != SlabBytesChunk/4+1 || cap(got) != len(got) {
		t.Fatalf("large record: len %d cap %d", len(got), cap(got))
	}
	if got := s.Values(SlabValuesChunk/4 + 1); len(got) != SlabValuesChunk/4+1 {
		t.Fatalf("wide payload: len %d", len(got))
	}
	if len(s.vals) != vals || len(s.buf) != buf {
		t.Fatalf("large carves consumed slab: vals %d -> %d, bytes %d -> %d", vals, len(s.vals), buf, len(s.buf))
	}
	s.Bytes(SlabBytesChunk / 4)
	if len(s.buf) != buf-SlabBytesChunk/4 {
		t.Fatalf("a quarter-chunk record was not carved: bytes %d -> %d", buf, len(s.buf))
	}
}

// TestSlabEmptyCarveIsNonNil: an empty record carves to an empty non-nil
// slice — from a fresh slab too — as make([]byte, 0) did.
func TestSlabEmptyCarveIsNonNil(t *testing.T) {
	var s Slab
	if b := s.Bytes(0); b == nil || len(b) != 0 {
		t.Fatalf("empty carve from a fresh slab: %v (nil: %t)", b, b == nil)
	}
}
