package worker

import (
	"bytes"
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

// recBatch and recResult frame n tuples of one shape as a batch payload and
// as a result payload (one emission per item), kind byte first.
func recBatch(t testing.TB, n int, fill byte, withCRC bool) []byte {
	t.Helper()
	items := make([]engine.RemoteItem, n)
	for i := range items {
		items[i] = engine.RemoteItem{Task: i % 4, Values: recTuple(fill+byte(i), withCRC)}
	}
	frame, err := appendBatchFrame(nil, 1, "parse", items)
	if err != nil {
		t.Fatal(err)
	}
	return frame[8:]
}

func recResult(t testing.TB, n int, fill byte, withCRC bool) []byte {
	t.Helper()
	res := resultMsg{Seq: 1, Emitted: make([][]engine.Values, n)}
	for i := range res.Emitted {
		res.Emitted[i] = []engine.Values{recTuple(fill+byte(i), withCRC)}
	}
	frame, err := appendResultFrame(nil, &res)
	if err != nil {
		t.Fatal(err)
	}
	return frame[8:]
}

// TestDecodeSteadyStateAllocs pins the receive side's cost to the interface
// boxes Go itself makes: one per item for [rec] (the []byte header), two for
// [rec, int64], plus chunk refills amortised to at most 0.05 per item. The
// Values, the byte payloads and the per-item emit lists cost nothing.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 256
	for _, tc := range []struct {
		name    string
		withCRC bool
		boxes   float64
	}{{"rec", false, 1}, {"rec+crc", true, 2}} {
		batch, result := recBatch(t, n, 1, tc.withCRC), recResult(t, n, 1, tc.withCRC)
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
			perItem := testing.AllocsPerRun(50, func() { _ = decode() }) / n
			if perItem < tc.boxes || perItem > tc.boxes+0.05 {
				t.Errorf("%s %s: %.3f allocs/item, want [%.0f, %.2f]", name, tc.name, perItem, tc.boxes, tc.boxes+0.05)
			}
		}
	}
}

// TestShuttleRoundTripAllocs pins a one-item batch's whole round trip —
// ProcessBatch, frame out, worker decode, bolt, frame back, decode, done —
// over loopback: the two []byte boxes (one per direction) and nothing per
// batch (AllocsPerRun floors away the amortised chunk refills).
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
	const maxAllocs = 2
	if got := testing.AllocsPerRun(500, trip); got > maxAllocs {
		t.Fatalf("one-item round trip: %.0f allocs, want <= %d", got, maxAllocs)
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
	if err := decodeBatch(recBatch(t, n, 1, true), &bm, &sl); err != nil {
		t.Fatal(err)
	}
	if err := decodeResult(recResult(t, n, 101, true), &rm, &sl); err != nil {
		t.Fatal(err)
	}
	keptBatch, keptResult := tuples()
	batch, result := recBatch(t, n, 200, true), recResult(t, n, 50, true)
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
	if err := decodeBatch(recBatch(t, 2, 1, true), &bm, &sl); err != nil {
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
