package worker

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/drs-repro/drs/internal/engine"
)

// FuzzWorkerFrame throws arbitrary byte streams at the shuttle's frame
// reader and payload decoders — torn frames, oversized length prefixes,
// flipped CRCs, forged counts, unknown kinds and tags. The invariants: no
// panic, no over-allocation (forged counts are rejected against the
// payload size before any allocation: what one decode takes from the heap,
// slab chunks included, stays within decodeAllocBound of its payload), and
// every *accepted* batch or result payload is canonical — re-encoding the
// decoded message reproduces the input bytes exactly, so a decode can never
// quietly reinterpret a frame.
func FuzzWorkerFrame(f *testing.F) {
	// Seed corpus: one valid frame of each kind, plus torn/flipped/forged
	// variants of the data frames.
	seeds := seedFrames(f)
	for _, name := range seedNames {
		f.Add(seeds[name])
	}
	f.Add([]byte{})
	f.Add([]byte("not a frame at all"))
	// Slab seeds, in the value chunk so they stay small enough to mutate
	// (the byte chunk's twins are TestSlab*). Five tuples of just under a
	// quarter chunk: the fifth would straddle the chunk boundary, so the
	// chunk is replaced. Then one tuple larger than a whole chunk.
	wide := make(engine.Values, engine.SlabValuesChunk+1)
	for i := range wide {
		wide[i] = i%2 == 0
	}
	straddle := make([]engine.RemoteItem, 5)
	for i := range straddle {
		straddle[i] = engine.RemoteItem{Task: i, Values: wide[:engine.SlabValuesChunk/4-1]}
	}
	for _, items := range [][]engine.RemoteItem{straddle, {{Values: wide}}} {
		frame, err := appendBatchFrame(nil, 9, "fan", items)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// Forged element counts under a valid CRC: the item count, then the
	// first tuple's value count, claim more than the payload can hold.
	countAt := 8 + 1 + 8 + 2 + len(testBatch().Bolt)
	for _, forge := range []func(p []byte){
		func(p []byte) { binary.BigEndian.PutUint32(p[countAt:], 1<<24) },
		func(p []byte) { binary.BigEndian.PutUint16(p[countAt+8:], 0xFFFF) },
	} {
		frame := append([]byte(nil), seeds["batch"]...)
		forge(frame)
		frame, err := finishFrame(frame)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		var buf []byte
		var sl slab
		for {
			var err error
			buf, err = readFrame(rd, buf)
			if err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
					errors.Is(err, ErrBadCRC) || errors.Is(err, ErrFrameTooBig) {
					return
				}
				t.Fatalf("unexpected frame error class: %v", err)
			}
			payload := buf
			if len(payload) == 0 {
				continue // empty payload: valid frame, no kind — ignored
			}
			switch payload[0] {
			case kindBatch:
				var m batchMsg
				if decodeWithinBound(t, payload, func() error { return decodeBatch(payload, &m, &sl) }) == nil {
					reencoded, err := appendBatchFrame(nil, m.Seq, string(m.Bolt), m.Items)
					if err != nil {
						t.Fatalf("accepted batch failed to re-encode: %v", err)
					}
					if !bytes.Equal(reencoded[8:], payload) {
						t.Fatalf("batch decode is not canonical:\n in: %x\nout: %x", payload, reencoded[8:])
					}
				}
			case kindResult:
				var m resultMsg
				if decodeWithinBound(t, payload, func() error { return decodeResult(payload, &m, &sl) }) == nil {
					reencoded, err := appendResultFrame(nil, &m)
					if err != nil {
						t.Fatalf("accepted result failed to re-encode: %v", err)
					}
					if !bytes.Equal(reencoded[8:], payload) {
						t.Fatalf("result decode is not canonical:\n in: %x\nout: %x", payload, reencoded[8:])
					}
				}
			case kindHello:
				var m helloMsg
				_ = decodeJSONBody(payload, &m)
			case kindWelcome:
				var m welcomeMsg
				_ = decodeJSONBody(payload, &m)
			case kindHeartbeat:
				// No body.
			}
		}
	})
}

// decodeAllocBound is the most heap one decode of an n-byte payload may
// take. The slab refills each chunk kind once per 3/4 chunk it carves (a
// replaced chunk drops under a quarter unused; a box chunk is used up
// whole), and the densest payloads — a 1-byte bool filling a 16-byte value
// slot, a 5-byte empty string or byte string filling a value slot and a 16-
// or 24-byte box slot, a 6-byte empty tuple growing Items or the emit
// scratch by a doubling append — stay under 64 heap bytes per payload byte.
// The fixed part is the first chunk of each kind: values, bytes and the six
// box chunks (a []byte header and a string are 24 and 16 bytes, the four
// numbers 8). The last term absorbs whatever else the process allocates
// meanwhile: the counter is process-wide.
func decodeAllocBound(n int) uint64 {
	boxChunks := (24 + 16 + 4*8) * engine.SlabBoxChunk
	return uint64(64*n + 16*engine.SlabValuesChunk + engine.SlabBytesChunk + boxChunks + 64<<10)
}

// decodeWithinBound runs one decode and fails the test if the heap it took
// exceeds decodeAllocBound: a forged count that reached a make would.
func decodeWithinBound(t *testing.T, payload []byte, decode func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode()
	runtime.ReadMemStats(&after)
	if got, max := after.TotalAlloc-before.TotalAlloc, decodeAllocBound(len(payload)); got > max {
		t.Fatalf("decoding a %d-byte payload allocated %d bytes, bound %d", len(payload), got, max)
	}
	return err
}

// seedNames orders the named seed frames as FuzzWorkerFrame adds them; the
// checked-in corpus holds each as testdata/fuzz/FuzzWorkerFrame/seed_<name>.
var seedNames = []string{
	"batch", "result", "batch_traced", "result_traced", "hello", "welcome", "heartbeat",
	"two_frames", "torn_payload", "torn_header", "crc_flip", "forged_len",
}

// brokenSeeds are the seeds written to fail, with the error each must keep.
var brokenSeeds = map[string]error{
	"torn_payload": io.ErrUnexpectedEOF,
	"torn_header":  io.ErrUnexpectedEOF,
	"crc_flip":     ErrBadCRC,
	"forged_len":   ErrFrameTooBig,
}

// seedFrames builds the named seeds with the current encoders over the
// frame_test.go fixtures.
func seedFrames(tb testing.TB) map[string][]byte {
	must := func(frame []byte, err error) []byte {
		if err != nil {
			tb.Fatal(err)
		}
		return frame
	}
	b, bt, r, rt := testBatch(), testBatchTraced(), testResult(), testResult()
	rt.Traced = []uint32{0, 2}
	rt.WaitNS = []int64{1500, 90}
	rt.ServiceNS = []int64{42000, 7}
	batch := must(appendBatchFrame(nil, b.Seq, string(b.Bolt), b.Items))
	result := must(appendResultFrame(nil, &r))
	flipped := append([]byte(nil), result...)
	flipped[len(flipped)-1] ^= 0xFF
	forged := append([]byte(nil), batch...)
	forged[0], forged[1] = 0xFF, 0xFF // absurd length prefix
	return map[string][]byte{
		"batch":         batch,
		"result":        result,
		"batch_traced":  must(appendBatchFrame(nil, bt.Seq, string(bt.Bolt), bt.Items)),
		"result_traced": must(appendResultFrame(nil, &rt)),
		"hello":         must(appendJSONFrame(nil, kindHello, helloMsg{Worker: "w0", Pid: 1})),
		"welcome":       must(appendJSONFrame(nil, kindWelcome, welcomeMsg{Machine: 1, Seed: 7, HeartbeatMS: 100, LeaseMS: 400})),
		"heartbeat":     must(appendHeartbeatFrame(nil)),
		"two_frames":    append(append([]byte(nil), batch...), result...),
		"torn_payload":  batch[:len(batch)-3],
		"torn_header":   batch[:5],
		"crc_flip":      flipped,
		"forged_len":    forged,
	}
}

var updateSeeds = flag.Bool("update-seeds", false, "rewrite the checked-in FuzzWorkerFrame seeds from the current encoders")

// TestFuzzSeedsDecode holds the checked-in FuzzWorkerFrame corpus to the
// wire format: every batch and result frame of a seed decodes, and each
// broken seed keeps its error. A seed left behind by a wire-format change
// reaches only the decoders' error branches, and the fuzzer then starts no
// valid frame; this test names it. `go test ./internal/worker -run
// TestFuzzSeedsDecode -update-seeds` rewrites the corpus.
func TestFuzzSeedsDecode(t *testing.T) {
	const dir = "testdata/fuzz/FuzzWorkerFrame"
	if *updateSeeds {
		seeds := seedFrames(t)
		for _, name := range seedNames {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seeds[name])
			if err := os.WriteFile(filepath.Join(dir, "seed_"+name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range seedNames {
		raw, err := os.ReadFile(filepath.Join(dir, "seed_"+name))
		if err != nil {
			t.Fatal(err)
		}
		quoted, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		quoted, ok2 := strings.CutSuffix(strings.TrimSpace(quoted), ")")
		data, err := strconv.Unquote(quoted)
		if !ok || !ok2 || err != nil {
			t.Fatalf("seed_%s: not a []byte corpus entry: %v", name, err)
		}
		err = decodeFrames([]byte(data))
		if want := brokenSeeds[name]; want != nil {
			if !errors.Is(err, want) {
				t.Errorf("seed_%s: error %v, want %v", name, err, want)
			}
		} else if err != nil {
			t.Errorf("seed_%s: %v (regenerate with -update-seeds)", name, err)
		}
	}
}

// decodeFrames reads every frame of data and decodes its payload by kind,
// returning the first error; a clean end of data is nil.
func decodeFrames(data []byte) error {
	rd := bytes.NewReader(data)
	var buf []byte
	var sl slab
	for {
		var err error
		if buf, err = readFrame(rd, buf); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		switch buf[0] {
		case kindBatch:
			err = decodeBatch(buf, new(batchMsg), &sl)
		case kindResult:
			err = decodeResult(buf, new(resultMsg), &sl)
		case kindHello:
			err = decodeJSONBody(buf, new(helloMsg))
		case kindWelcome:
			err = decodeJSONBody(buf, new(welcomeMsg))
		}
		if err != nil {
			return err
		}
	}
}
