package worker

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"github.com/drs-repro/drs/internal/engine"
)

func testBatch() batchMsg {
	return batchMsg{
		Seq:  42,
		Bolt: []byte("fan"),
		Items: []engine.RemoteItem{
			{Task: 0, Values: engine.Values{7, "alpha", []byte{1, 2, 3}}},
			{Task: 3, Values: engine.Values{int64(-9), uint64(1 << 60), 2.5, true, false, nil}},
			{Task: 9, Values: engine.Values{engine.StreamTagValue("e1"), 0}},
		},
	}
}

func testResult() resultMsg {
	return resultMsg{
		Seq: 42,
		Emitted: [][]engine.Values{
			{{1, "x"}, {engine.StreamTagValue("e0"), 2}},
			nil,
			{{[]byte("payload")}},
		},
		Served: 3, Sampled: 1, BusyNanos: 12345, Errors: 1,
	}
}

// TestBatchRoundTrip encodes a batch, reads it back through the frame
// reader, and checks field-for-field equality plus byte-level canonical
// re-encoding.
func TestBatchRoundTrip(t *testing.T) {
	in := testBatch()
	frame, err := appendBatchFrame(nil, in.Seq, string(in.Bolt), in.Items)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	var out batchMsg
	if err := decodeBatch(payload, &out, new(slab)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", in, out)
	}
	again, err := appendBatchFrame(nil, out.Seq, string(out.Bolt), out.Items)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, again) {
		t.Fatal("re-encoding is not canonical")
	}
}

// TestResultRoundTrip does the same for result frames.
func TestResultRoundTrip(t *testing.T) {
	in := testResult()
	frame, err := appendResultFrame(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	var out resultMsg
	if err := decodeResult(payload, &out, new(slab)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", in, out)
	}
}

// TestControlRoundTrip covers the JSON hello/welcome frames and the
// heartbeat.
func TestControlRoundTrip(t *testing.T) {
	hello := helloMsg{Worker: "w1", Pid: 4242}
	frame, err := appendJSONFrame(nil, kindHello, hello)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	if payload[0] != kindHello {
		t.Fatalf("kind = %#x, want hello", payload[0])
	}
	var gotHello helloMsg
	if err := decodeJSONBody(payload, &gotHello); err != nil {
		t.Fatal(err)
	}
	if gotHello != hello {
		t.Fatalf("hello round trip: %+v != %+v", gotHello, hello)
	}
	welcome := welcomeMsg{Machine: 3, Seed: -7, HeartbeatMS: 250}
	frame, err = appendJSONFrame(nil, kindWelcome, welcome)
	if err != nil {
		t.Fatal(err)
	}
	if payload, err = readFrame(bytes.NewReader(frame), nil); err != nil {
		t.Fatal(err)
	}
	var gotWelcome welcomeMsg
	if err := decodeJSONBody(payload, &gotWelcome); err != nil {
		t.Fatal(err)
	}
	if gotWelcome != welcome {
		t.Fatalf("welcome round trip: %+v != %+v", gotWelcome, welcome)
	}
	if frame, err = appendHeartbeatFrame(nil); err != nil {
		t.Fatal(err)
	}
	if payload, err = readFrame(bytes.NewReader(frame), nil); err != nil {
		t.Fatal(err)
	}
	if len(payload) != 1 || payload[0] != kindHeartbeat {
		t.Fatalf("heartbeat payload = %v", payload)
	}
}

// TestFrameTampering flips bits, tears frames and forges lengths; the
// reader must reject each without panicking.
func TestFrameTampering(t *testing.T) {
	in := testBatch()
	frame, err := appendBatchFrame(nil, in.Seq, string(in.Bolt), in.Items)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("crc flip", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[len(bad)-1] ^= 0x01
		if _, err := readFrame(bytes.NewReader(bad), nil); !errors.Is(err, ErrBadCRC) {
			t.Fatalf("err = %v, want ErrBadCRC", err)
		}
	})
	t.Run("torn payload", func(t *testing.T) {
		if _, err := readFrame(bytes.NewReader(frame[:len(frame)-3]), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want unexpected EOF", err)
		}
	})
	t.Run("torn header", func(t *testing.T) {
		if _, err := readFrame(bytes.NewReader(frame[:5]), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want unexpected EOF", err)
		}
	})
	t.Run("oversized length", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[0], bad[1], bad[2], bad[3] = 0xFF, 0xFF, 0xFF, 0xFF
		if _, err := readFrame(bytes.NewReader(bad), nil); !errors.Is(err, ErrFrameTooBig) {
			t.Fatalf("err = %v, want ErrFrameTooBig", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		// Reframe a clipped payload with a valid CRC: the frame layer
		// accepts it, the batch decoder must not.
		payload, err := readFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatal(err)
		}
		clipped, err := finishFrame(append(beginFrame(nil), payload[:len(payload)-2]...))
		if err != nil {
			t.Fatal(err)
		}
		got, err := readFrame(bytes.NewReader(clipped), nil)
		if err != nil {
			t.Fatal(err)
		}
		var m batchMsg
		if err := decodeBatch(got, &m, new(slab)); err == nil {
			t.Fatal("clipped batch decoded cleanly")
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		payload, err := readFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatal(err)
		}
		padded, err := finishFrame(append(append(beginFrame(nil), payload...), 0xAB))
		if err != nil {
			t.Fatal(err)
		}
		got, err := readFrame(bytes.NewReader(padded), nil)
		if err != nil {
			t.Fatal(err)
		}
		var m batchMsg
		if err := decodeBatch(got, &m, new(slab)); err == nil {
			t.Fatal("padded batch decoded cleanly")
		}
	})
	t.Run("forged count", func(t *testing.T) {
		payload, err := readFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatal(err)
		}
		forged := append([]byte(nil), payload...)
		// The item count sits after kind(1)+seq(8)+boltLen(2)+bolt.
		off := 1 + 8 + 2 + len(testBatch().Bolt)
		forged[off], forged[off+1], forged[off+2], forged[off+3] = 0x7F, 0xFF, 0xFF, 0xFF
		var m batchMsg
		if err := decodeBatch(forged, &m, new(slab)); err == nil {
			t.Fatal("forged item count decoded cleanly")
		}
	})
}

// testBatchTraced is testBatch with the first and last items flagged for
// individual timing — the trace block carries {0, 2}.
func testBatchTraced() batchMsg {
	b := testBatch()
	b.Items[0].Traced = true
	b.Items[2].Traced = true
	return b
}

// TestBatchRoundTripTraced checks the trace block round-trips: traced
// flags survive encode/decode and the re-encoding stays canonical.
func TestBatchRoundTripTraced(t *testing.T) {
	in := testBatchTraced()
	frame, err := appendBatchFrame(nil, in.Seq, string(in.Bolt), in.Items)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	var out batchMsg
	if err := decodeBatch(payload, &out, new(slab)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", in, out)
	}
	again, err := appendBatchFrame(nil, out.Seq, string(out.Bolt), out.Items)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, again) {
		t.Fatal("re-encoding is not canonical")
	}
}

// TestResultRoundTripTraced checks the result trace block: per-item wait
// and service durations align with their indices across the wire.
func TestResultRoundTripTraced(t *testing.T) {
	in := testResult()
	in.Traced = []uint32{0, 2}
	in.WaitNS = []int64{1500, 90}
	in.ServiceNS = []int64{42000, 7}
	frame, err := appendResultFrame(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	var out resultMsg
	if err := decodeResult(payload, &out, new(slab)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", in, out)
	}
}

// TestTraceBlockTampering forges the trace blocks: out-of-range and
// out-of-order indices, forged counts and misaligned encode inputs must
// all be rejected.
func TestTraceBlockTampering(t *testing.T) {
	t.Run("batch forged trace count", func(t *testing.T) {
		in := testBatch()
		frame, err := appendBatchFrame(nil, in.Seq, string(in.Bolt), in.Items)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := readFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatal(err)
		}
		// The trace count is the final u32 of the payload (zero traced).
		forged := append([]byte(nil), payload...)
		off := len(forged) - 4
		forged[off], forged[off+1], forged[off+2], forged[off+3] = 0x7F, 0xFF, 0xFF, 0xFF
		var m batchMsg
		if err := decodeBatch(forged, &m, new(slab)); err == nil {
			t.Fatal("forged trace count decoded cleanly")
		}
	})
	t.Run("batch trace index out of range", func(t *testing.T) {
		in := testBatchTraced()
		frame, err := appendBatchFrame(nil, in.Seq, string(in.Bolt), in.Items)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := readFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatal(err)
		}
		// The last u32 is the second traced index (2); point it past the
		// item count.
		forged := append([]byte(nil), payload...)
		forged[len(forged)-1] = 9
		var m batchMsg
		if err := decodeBatch(forged, &m, new(slab)); err == nil {
			t.Fatal("out-of-range trace index decoded cleanly")
		}
	})
	t.Run("batch trace index out of order", func(t *testing.T) {
		in := testBatchTraced()
		frame, err := appendBatchFrame(nil, in.Seq, string(in.Bolt), in.Items)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := readFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatal(err)
		}
		// Rewrite the trace block {0, 2} as {2, 0}: same bytes, bad order.
		forged := append([]byte(nil), payload...)
		forged[len(forged)-5], forged[len(forged)-1] = 2, 0
		var m batchMsg
		if err := decodeBatch(forged, &m, new(slab)); err == nil {
			t.Fatal("out-of-order trace indices decoded cleanly")
		}
	})
	t.Run("result misaligned trace block refuses to encode", func(t *testing.T) {
		res := testResult()
		res.Traced = []uint32{0}
		res.WaitNS = []int64{1, 2} // one extra
		res.ServiceNS = []int64{3}
		if _, err := appendResultFrame(nil, &res); err == nil {
			t.Fatal("misaligned trace block encoded cleanly")
		}
	})
	t.Run("result trace index out of order", func(t *testing.T) {
		res := testResult()
		res.Traced = []uint32{0, 2}
		res.WaitNS = []int64{1, 2}
		res.ServiceNS = []int64{3, 4}
		frame, err := appendResultFrame(nil, &res)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := readFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatal(err)
		}
		// Each trace entry is 20 bytes: swap the two entry indices.
		forged := append([]byte(nil), payload...)
		first, second := len(forged)-40, len(forged)-20
		forged[first+3], forged[second+3] = 2, 0
		var m resultMsg
		if err := decodeResult(forged, &m, new(slab)); err == nil {
			t.Fatal("out-of-order result trace indices decoded cleanly")
		}
	})
}

// TestUnsupportedValueType checks that an un-serializable payload is an
// encode error, not a panic or a silent drop.
func TestUnsupportedValueType(t *testing.T) {
	type odd struct{ X int }
	_, err := appendBatchFrame(nil, 1, "b", []engine.RemoteItem{{Task: 0, Values: engine.Values{odd{1}}}})
	if err == nil {
		t.Fatal("want encode error for unsupported type")
	}
}
