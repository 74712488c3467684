package ingest

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/engine"
)

// scriptConn is the server end of a connection whose client has already
// said everything it will say: reads come from the script and end in EOF,
// writes are counted, deadlines are accepted and ignored.
type scriptConn struct {
	script  *bytes.Reader
	replies int // 5-byte writes seen
	other   int // writes of any other length
	closed  bool
}

func (c *scriptConn) Read(p []byte) (int, error) { return c.script.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) {
	if len(p) == 5 {
		c.replies++
	} else {
		c.other++
	}
	return len(p), nil
}
func (c *scriptConn) Close() error                     { c.closed = true; return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// wholeRecordFrames is the reference reading of a client stream: how many
// record frames (those after the hello) arrive whole before the stream
// ends, truncates, or claims an oversize length.
func wholeRecordFrames(data []byte) int {
	frames := 0
	for len(data) >= 4 {
		n := int(binary.BigEndian.Uint32(data))
		if n > maxRecordBytes || len(data)-4 < n {
			break
		}
		data = data[4+n:]
		frames++
	}
	return max(frames-1, 0)
}

// streamAllocBound is the most heap serving a fed-byte stream may take.
// Per record the loop pays the record's bytes, its 16-byte value slot, its
// 24-byte []byte box slot and — while the burst scratch is still doubling
// towards burstMax — its share of an offer; the emptiest frame is 4 bytes,
// hence 32 per byte fed. The fixed part is what a connection owns however
// little it sends: the read buffer, the first large-record buffer, one
// chunk of each kind the loop carves (bytes, values, []byte boxes), the
// full-grown burst scratch and reply vector, and whatever else the process
// allocates meanwhile (the counter is process-wide). A forged length that reached a make would add up to
// maxRecordBytes and break it.
func streamAllocBound(fed int) uint64 {
	fixed := 2*tcpReadBuffer + engine.SlabBytesChunk + 16*engine.SlabValuesChunk + 24*engine.SlabBoxChunk + 3*burstMax*(56+24) + 64<<10
	return uint64(32*fed + fixed)
}

// FuzzIngestStream feeds arbitrary bytes to the TCP frame loop: it must not
// panic, must answer exactly the record frames that arrived whole — one
// 5-byte reply each, so an oversize length or a torn frame ends the
// connection with everything before it answered — must keep the gate's
// books balanced, and must take no more heap than the bytes it was fed
// warrant.
func FuzzIngestStream(f *testing.F) {
	hello := frame(nil, []byte("fuzz"))
	f.Add([]byte{})
	f.Add(hello)
	f.Add(frame(frame(bytes.Clone(hello), []byte("rec-1")), nil))
	f.Add(append(frame(bytes.Clone(hello), []byte("whole")), 0, 0, 0, 9, 'h', 'a'))   // torn tail
	f.Add(append(frame(bytes.Clone(hello), []byte("whole")), 0xFF, 0xFF, 0xFF, 0xFF)) // oversize length
	f.Add(append(bytes.Clone(hello), 0x00, 0x10, 0x00, 0x00))                         // a forged 1 MiB, nothing behind it
	f.Add(binary.BigEndian.AppendUint32(nil, maxRecordBytes+1))                       // oversize hello
	pipelined := bytes.Clone(hello)
	for i := 0; i < 2*burstMax+3; i++ {
		pipelined = frame(pipelined, []byte{byte(i)})
	}
	f.Add(pipelined)
	f.Add(frame(bytes.Clone(hello), bytes.Repeat([]byte{'L'}, engine.SlabBytesChunk/4+1))) // own allocation

	f.Fuzz(func(t *testing.T, data []byte) {
		g := NewGate(GateConfig{RingCapacity: 1 << 10})
		defer g.Close()
		conn := &scriptConn{script: bytes.NewReader(data)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		serveConn(conn, g, ListenerConfig{}.withDefaults())
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, streamAllocBound(len(data)); got > bound {
			t.Fatalf("serving %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if !conn.closed {
			t.Fatal("serveConn returned without closing the connection")
		}
		want := wholeRecordFrames(data)
		if conn.replies != want || conn.other != 0 {
			t.Fatalf("%d five-byte replies and %d other writes for %d whole record frames", conn.replies, conn.other, want)
		}
		s := g.Stats()
		if s.Offered != int64(want) || s.Offered != s.Admitted+s.ShedRateLimit+s.ShedOverload+s.ShedBacklog {
			t.Fatalf("books: %+v for %d whole record frames", s, want)
		}
	})
}

// FuzzNDJSONSplit holds the in-place line splitter to bufio.ScanLines, the
// tokenizer it replaced, on any body: the same non-empty lines in the same
// order, each delivered with cap == len so an append by its receiver cannot
// reach the next line.
func FuzzNDJSONSplit(f *testing.F) {
	for _, seed := range []string{"", "a", "a\n", "a\nb", "a\r\nb\r\n", "\n\n", "\r", "\r\n", "a\r", "x\r\r\n", "\n\ra\n\n", "a\n\r\nb\r"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want [][]byte
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(nil, len(body)+2) // never ErrTooLong: the reference sees every line
		for sc.Scan() {
			if len(sc.Bytes()) > 0 {
				want = append(want, bytes.Clone(sc.Bytes()))
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("reference scanner: %v", err)
		}
		var got [][]byte
		for rest := body; len(rest) > 0; {
			var line []byte
			if line, rest = nextLine(rest); len(line) > 0 {
				if cap(line) != len(line) {
					t.Fatalf("line %q delivered with cap %d > len %d", line, cap(line), len(line))
				}
				got = append(got, line)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("split %q into %d lines, bufio.ScanLines into %d", body, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("line %d of %q: %q, bufio.ScanLines says %q", i, body, got[i], want[i])
			}
		}
	})
}
