package worker

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/obs"
)

// benchRec is the benchmark's record size; benchCRC is an int64 too large
// for Go's static small-integer boxes, so boxing it is a real allocation.
const (
	benchRec = 128
	benchCRC = int64(0x1234_5678_9abc)
)

// recTuple builds one of the benchmark's two tuple shapes: [rec] or
// [rec, crc], the record filled with fill.
func recTuple(fill byte, withCRC bool) engine.Values {
	rec := bytes.Repeat([]byte{fill}, benchRec)
	if withCRC {
		return engine.Values{rec, benchCRC}
	}
	return engine.Values{rec}
}

// recTuples is recTuple(fill+i, withCRC) for item i.
func recTuples(fill byte, withCRC bool) func(i int) engine.Values {
	return func(i int) engine.Values { return recTuple(fill+byte(i), withCRC) }
}

// recBatch and recResult frame n tuples, tuple(i) for item i, as a batch
// payload and as a result payload (one emission per item), kind byte first.
func recBatch(t testing.TB, n int, tuple func(i int) engine.Values) []byte {
	t.Helper()
	items := make([]engine.RemoteItem, n)
	for i := range items {
		items[i] = engine.RemoteItem{Task: i % 4, Values: tuple(i)}
	}
	frame, err := appendBatchFrame(nil, 1, "parse", items)
	if err != nil {
		t.Fatal(err)
	}
	return frame[8:]
}

func recResult(t testing.TB, n int, tuple func(i int) engine.Values) []byte {
	t.Helper()
	res := resultMsg{Seq: 1, Emitted: make([][]engine.Values, n)}
	for i := range res.Emitted {
		res.Emitted[i] = []engine.Values{tuple(i)}
	}
	frame, err := appendResultFrame(nil, &res)
	if err != nil {
		t.Fatal(err)
	}
	return frame[8:]
}

// TestDecodeSteadyStateAllocs pins the receive side's cost per item at the
// slab's chunk refills, amortised to at most 0.05, for the benchmark's two
// shapes and a tuple of each data tag the codec carries: the Values, the
// byte payloads, every value's interface box, the per-item emit lists and
// the stream marker of an Emit.To emission are carved, reused or interned.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 256
	for _, tc := range []struct {
		name  string
		tuple func(i int) engine.Values
	}{
		{"rec", recTuples(1, false)},
		{"rec+int64", recTuples(1, true)},
		{"nil", func(int) engine.Values { return engine.Values{nil} }},
		{"int", func(i int) engine.Values { return engine.Values{int(benchCRC) + i} }},
		{"uint64", func(i int) engine.Values { return engine.Values{uint64(benchCRC) + uint64(i)} }},
		{"float", func(i int) engine.Values { return engine.Values{float64(i) + 0.5} }},
		{"true", func(int) engine.Values { return engine.Values{true} }},
		{"false", func(int) engine.Values { return engine.Values{false} }},
		{"string", func(i int) engine.Values { return engine.Values{fmt.Sprintf("record %d", i)} }},
		{"stream", func(i int) engine.Values {
			return engine.Values{engine.StreamTagValue([]string{"side", "alerts"}[i%2]), int64(i)}
		}},
	} {
		batch, result := recBatch(t, n, tc.tuple), recResult(t, n, tc.tuple)
		var sl slab
		var bm batchMsg
		var rm resultMsg
		for name, decode := range map[string]func() error{
			"decodeBatch":  func() error { return decodeBatch(batch, &bm, &sl) },
			"decodeResult": func() error { return decodeResult(result, &rm, &sl) },
		} {
			if err := decode(); err != nil { // warm the message and scratch capacity
				t.Fatal(err)
			}
			if perItem := testing.AllocsPerRun(50, func() { _ = decode() }) / n; perItem > 0.05 {
				t.Errorf("%s %s: %.3f allocs/item, want <= 0.05", name, tc.name, perItem)
			}
		}
	}
}

// TestShuttleRoundTripAllocs pins a one-item batch's whole round trip —
// ProcessBatch, frame out, worker decode, bolt, frame back, decode, done —
// over loopback at zero: both decodes carve the []byte box too, and
// AllocsPerRun floors away the amortised chunk refills.
func TestShuttleRoundTripAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tc := startCluster(t, CoordinatorConfig{})
	w := dialWorkerBolts(t, tc, "w1", func(int64) (map[string]engine.BoltFactory, error) {
		return map[string]engine.BoltFactory{"pass": func(int) engine.Bolt {
			return engine.BoltFunc(func(tu engine.Tuple, emit engine.Emit) error {
				emit(tu.Values)
				return nil
			})
		}}, nil
	})
	if err := tc.co.WaitWorkers(1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	s := tc.co.Shuttle(w.Machine())
	items := []engine.RemoteItem{{Values: recTuple(7, false)}}
	back := make(chan error, 1)
	done := func(_ engine.RemoteResult, err error) { back <- err }
	trip := func() {
		if err := s.ProcessBatch("pass", items, done); err != nil {
			t.Fatal(err)
		}
		if err := <-back; err != nil {
			t.Fatal(err)
		}
	}
	trip()
	if got := testing.AllocsPerRun(500, trip); got != 0 {
		t.Fatalf("one-item round trip: %.0f allocs, want 0", got)
	}
}

// decodedBytes returns the record of a decoded benchmark-shaped tuple.
func decodedBytes(t *testing.T, vs engine.Values) []byte {
	t.Helper()
	rec, ok := vs[0].([]byte)
	if !ok {
		t.Fatalf("value 0 is %T, want []byte", vs[0])
	}
	return rec
}

// checkRecTuples fails unless tuple i is recTuple(fill+i, true).
func checkRecTuples(t *testing.T, what string, tuples []engine.Values, fill byte) {
	t.Helper()
	for i, vs := range tuples {
		want := recTuple(fill+byte(i), true)
		if len(vs) != 2 || !bytes.Equal(decodedBytes(t, vs), want[0].([]byte)) || vs[1] != want[1] {
			t.Fatalf("%s: tuple %d is %v", what, i, vs)
		}
	}
}

// TestSlabRetainedValuesSurvive is the never-rewind invariant: everything
// decoded from frame 0 is retained while 10 000 further frames go through
// the same slab (and the same reused messages) — crossing a chunk boundary
// every few frames, each frame checked as it lands — and must not change.
func TestSlabRetainedValuesSurvive(t *testing.T) {
	const n = 16
	var sl slab
	var bm batchMsg
	var rm resultMsg
	tuples := func() (batch, result []engine.Values) {
		for _, it := range bm.Items {
			batch = append(batch, it.Values)
		}
		for _, emits := range rm.Emitted {
			result = append(result, emits...) // the Values are owned; only the lists are lent
		}
		return batch, result
	}
	if err := decodeBatch(recBatch(t, n, recTuples(1, true)), &bm, &sl); err != nil {
		t.Fatal(err)
	}
	if err := decodeResult(recResult(t, n, recTuples(101, true)), &rm, &sl); err != nil {
		t.Fatal(err)
	}
	keptBatch, keptResult := tuples()
	batch, result := recBatch(t, n, recTuples(200, true)), recResult(t, n, recTuples(50, true))
	for i := 0; i < 5000; i++ {
		if err := decodeBatch(batch, &bm, &sl); err != nil {
			t.Fatal(err)
		}
		if err := decodeResult(result, &rm, &sl); err != nil {
			t.Fatal(err)
		}
		b, r := tuples()
		checkRecTuples(t, "fresh batch", b, 200)
		checkRecTuples(t, "fresh result", r, 50)
	}
	checkRecTuples(t, "batch retained across 10000 frames", keptBatch, 1)
	checkRecTuples(t, "result retained across 10000 frames", keptResult, 101)
}

// TestSlabAppendCannotReachNeighbour: delivered Values and []byte have
// cap == len, so a bolt appending to either reallocates instead of writing
// into the next item carved from the same chunk.
func TestSlabAppendCannotReachNeighbour(t *testing.T) {
	var sl slab
	var bm batchMsg
	if err := decodeBatch(recBatch(t, 2, recTuples(1, true)), &bm, &sl); err != nil {
		t.Fatal(err)
	}
	first, second := bm.Items[0].Values, bm.Items[1].Values
	rec := decodedBytes(t, first)
	if cap(first) != len(first) || cap(rec) != len(rec) {
		t.Fatalf("delivered with spare capacity: Values cap %d len %d, []byte cap %d len %d",
			cap(first), len(first), cap(rec), len(rec))
	}
	_ = append(first, "clobber", "clobber")
	_ = append(rec, bytes.Repeat([]byte{0xEE}, benchRec)...)
	checkRecTuples(t, "neighbour of an appended-to tuple", []engine.Values{second}, 2)
}

// TestSlabLargePayloadOwnAllocation: a record and a tuple above a quarter
// chunk — which engine.Slab gives allocations of their own, consuming no
// chunk (engine.TestSlabLargeCarveOwnAllocation) — round-trip through the
// codec, and the small tuple decoded after them is intact.
func TestSlabLargePayloadOwnAllocation(t *testing.T) {
	big := bytes.Repeat([]byte{0xAB}, engine.SlabBytesChunk/4+1)
	wide := make(engine.Values, engine.SlabValuesChunk/4+1)
	for i := range wide {
		wide[i] = true
	}
	frame, err := appendBatchFrame(nil, 1, "parse", []engine.RemoteItem{{Values: engine.Values{big}}, {Values: wide}, {Values: recTuple(9, true)}})
	if err != nil {
		t.Fatal(err)
	}
	var sl slab
	var bm batchMsg
	if err := decodeBatch(frame[8:], &bm, &sl); err != nil {
		t.Fatal(err)
	}
	if got := decodedBytes(t, bm.Items[0].Values); !bytes.Equal(got, big) || cap(got) != len(got) {
		t.Fatal("large payload did not round-trip with cap == len")
	}
	if got := bm.Items[1].Values; len(got) != len(wide) || got[len(got)-1] != true {
		t.Fatal("wide tuple did not round-trip")
	}
	checkRecTuples(t, "small tuple after the large ones", []engine.Values{bm.Items[2].Values}, 9)
}

// TestTrimScratchDropsOversizedBuffers: a frame scratch that grew past
// maxScratch is not kept for the next frame.
func TestTrimScratchDropsOversizedBuffers(t *testing.T) {
	if small := make([]byte, 10, maxScratch); trimScratch(small) == nil {
		t.Fatal("a scratch at the cap was dropped")
	}
	if trimScratch(make([]byte, 0, maxScratch+1)) != nil {
		t.Fatal("a scratch above the cap was kept")
	}
}
