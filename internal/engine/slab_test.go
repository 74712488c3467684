package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"github.com/drs-repro/drs/internal/obs"
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

// boxKind is one of the slab's box methods, driven by an int: carved boxes
// i through the slab, converted is the same value boxed by Go.
type boxKind struct {
	name      string
	carved    func(s *Slab, i int) any
	converted func(i int) any
}

// boxKinds covers every Box* method. Each value is unique per i and, for the
// integers, far above the 256 that Go boxes statically.
var boxKinds = []boxKind{
	{"[]byte", func(s *Slab, i int) any {
		b := s.Bytes(8)
		binary.BigEndian.PutUint64(b, uint64(i))
		return s.BoxBytes(b)
	}, func(i int) any { return binary.BigEndian.AppendUint64(nil, uint64(i)) }},
	{"int", func(s *Slab, i int) any { return s.BoxInt(i << 20) }, func(i int) any { return i << 20 }},
	{"int64", func(s *Slab, i int) any { return s.BoxInt64(int64(i) << 40) }, func(i int) any { return int64(i) << 40 }},
	{"uint64", func(s *Slab, i int) any { return s.BoxUint64(uint64(i) << 40) }, func(i int) any { return uint64(i) << 40 }},
	{"float64", func(s *Slab, i int) any { return s.BoxFloat64(float64(i) + 0.5) }, func(i int) any { return float64(i) + 0.5 }},
	{"string", func(s *Slab, i int) any { return s.BoxString([]byte(strconv.Itoa(i))) }, func(i int) any { return strconv.Itoa(i) }},
}

// TestSlabBoxesReadAsConverted: a carved box is indistinguishable from Go's
// own — the same type switch arm, == to the converted value (a []byte,
// not comparable, by its bytes), the same reflect.Type and the same fmt
// rendering.
func TestSlabBoxesReadAsConverted(t *testing.T) {
	var s Slab
	for _, k := range boxKinds {
		for _, i := range []int{0, 1, 1 << 12} {
			got, want := k.carved(&s, i), k.converted(i)
			if reflect.TypeOf(got) != reflect.TypeOf(want) || fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
				t.Fatalf("%s %d: carved %#v (%T), converted %#v (%T)", k.name, i, got, got, want, want)
			}
			var same bool
			switch g := got.(type) {
			case []byte:
				same = bytes.Equal(g, want.([]byte))
			case int, int64, uint64, float64, string:
				same = got == want
			}
			if !same {
				t.Fatalf("%s %d: carved %v != converted %v", k.name, i, got, want)
			}
		}
	}
}

// TestSlabBoxesSurviveGC keeps every 97th box of each kind while 20 box
// chunks are filled and replaced, with a collection after each: the kept
// boxes are reachable only through their data words, and must read intact.
func TestSlabBoxesSurviveGC(t *testing.T) {
	for _, k := range boxKinds {
		var s Slab
		type kept struct {
			i int
			v any
		}
		var keep []kept
		for i := 0; i < 20*SlabBoxChunk; i++ {
			if v := k.carved(&s, i); i%97 == 0 {
				keep = append(keep, kept{i, v})
			}
			if i%SlabBoxChunk == SlabBoxChunk-1 {
				runtime.GC()
			}
		}
		runtime.GC()
		for _, kv := range keep {
			if want := k.converted(kv.i); !reflect.DeepEqual(kv.v, want) {
				t.Fatalf("%s: box %d reads %#v after GC, want %#v", k.name, kv.i, kv.v, want)
			}
		}
	}
}

// TestSlabBoxZeroAllocs: inside a chunk, boxing allocates nothing — the
// zero value (whose type word box takes from Go's own static box) and a
// value Go would have heap-boxed alike.
func TestSlabBoxZeroAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rec := []byte("record")
	for _, c := range []struct {
		name string
		box  func(s *Slab) any
	}{
		{"[]byte zero", func(s *Slab) any { return s.BoxBytes(nil) }},
		{"[]byte", func(s *Slab) any { return s.BoxBytes(rec) }},
		{"int zero", func(s *Slab) any { return s.BoxInt(0) }},
		{"int", func(s *Slab) any { return s.BoxInt(1 << 40) }},
		{"int64 zero", func(s *Slab) any { return s.BoxInt64(0) }},
		{"int64", func(s *Slab) any { return s.BoxInt64(1 << 40) }},
		{"uint64 zero", func(s *Slab) any { return s.BoxUint64(0) }},
		{"uint64", func(s *Slab) any { return s.BoxUint64(1 << 40) }},
		{"float64 zero", func(s *Slab) any { return s.BoxFloat64(0) }},
		{"float64", func(s *Slab) any { return s.BoxFloat64(1.5) }},
		{"string zero", func(s *Slab) any { return s.BoxString(nil) }},
		{"string", func(s *Slab) any { return s.BoxString(rec) }},
	} {
		var s Slab
		c.box(&s) // open the chunks; the 101 boxes below fit in them
		if got := testing.AllocsPerRun(100, func() { c.box(&s) }); got != 0 {
			t.Errorf("%s: %.0f allocs per box, want 0", c.name, got)
		}
	}
}
