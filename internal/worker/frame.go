// Package worker is the distributed half of the engine: a worker daemon
// hosts bolt executors in its own process, and a serve-side coordinator
// registers workers, leases them machine identities from the cluster pool,
// and shuttles tuple batches to them over TCP.
//
// The wire protocol reuses the repo's framing idioms: every frame is
//
//	[u32 length][u32 crc32c(payload)][payload]
//
// (the ingest front door's length prefix plus the WAL's Castagnoli
// checksum), and the payload's first byte is the frame kind. Control
// frames (hello, welcome) are small and JSON-encoded; data frames (batch,
// result) use a compact binary layout with per-value type tags, encoded
// into reused buffers so the steady shuttle path allocates nothing on the
// send side, and decoded into a per-reader bump slab (see slab) — payloads,
// bytes and the interface box of every data value — so the receive side
// allocates nothing per value either (a stream marker still costs its
// string and box).
// Decoding is strict — unknown kinds, unknown tags, truncated
// bodies, forged counts and trailing garbage are all errors — which is what
// lets the fuzz harness assert "any byte stream either decodes cleanly or
// errors, never panics, never over-allocates".
package worker

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"github.com/drs-repro/drs/internal/engine"
)

// MaxFrameBytes bounds one shuttle frame. A batch of RemoteBatchCap tuples
// with generous payloads fits far under this; anything larger is a corrupt
// or hostile length prefix.
const MaxFrameBytes = 16 << 20

// Frame kinds (first payload byte).
const (
	kindHello     = 0x01 // worker -> serve: JSON helloMsg
	kindWelcome   = 0x02 // serve -> worker: JSON welcomeMsg
	kindHeartbeat = 0x03 // worker -> serve: empty body, lease renewal
	kindBatch     = 0x04 // serve -> worker: tuple batch for one bolt
	kindResult    = 0x05 // worker -> serve: emissions + probe aggregates
)

// Value type tags of the binary tuple codec.
const (
	tagNil    = 0x00
	tagInt    = 0x01 // 8-byte two's-complement big endian
	tagInt64  = 0x02
	tagUint64 = 0x03
	tagFloat  = 0x04 // IEEE-754 bits, big endian
	tagTrue   = 0x05
	tagFalse  = 0x06
	tagString = 0x07 // u32 length + bytes
	tagBytes  = 0x08 // u32 length + bytes
	tagStream = 0x09 // u32 length + bytes; engine stream marker (Emit.To)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadCRC reports a frame whose payload does not match its checksum.
var ErrBadCRC = errors.New("worker: frame CRC mismatch")

// ErrFrameTooBig reports a length prefix beyond MaxFrameBytes.
var ErrFrameTooBig = errors.New("worker: frame exceeds size limit")

// errTruncated reports a payload that ended before its declared contents.
var errTruncated = errors.New("worker: truncated frame payload")

// helloMsg is the worker's registration, the first frame of a connection.
type helloMsg struct {
	// Worker is the daemon's self-chosen name (diagnostics only; identity
	// is the machine id the coordinator assigns).
	Worker string `json:"worker"`
	// Pid lets the serve side report which OS process backs a machine.
	Pid int `json:"pid"`
}

// welcomeMsg is the coordinator's reply: the worker's leased identity and
// its heartbeat period. The lease itself is the coordinator's business: a
// worker only has to beat within it.
type welcomeMsg struct {
	// Machine is the cluster-pool machine id this worker now embodies.
	Machine int `json:"machine"`
	// Seed is the topology seed; the worker builds bit-identical bolt
	// instances from the shared topology file plus this seed.
	Seed int64 `json:"seed"`
	// HeartbeatMS is how often the worker must write a heartbeat frame.
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// batchMsg is one shuttle batch: tuples bound for one bolt's tasks.
type batchMsg struct {
	// Seq matches a result to its batch on the answering connection.
	Seq uint64
	// Bolt names the destination bolt, in a buffer the message reuses
	// across frames.
	Bolt []byte
	// Items are the tuples; Task selects the bolt task (its state) on the
	// worker. Traced flags ride the frame's trace block — the ascending
	// item indices the serve side wants measured individually.
	Items []engine.RemoteItem
	// arrived is stamped by the worker's read loop right after decode —
	// not wire data. Traced items measure their worker-side queue wait
	// from it: the time from frame arrival to their Process start.
	arrived time.Time
}

// resultMsg is the worker's answer to one batch.
type resultMsg struct {
	// Seq echoes the batch sequence number.
	Seq uint64
	// Emitted is index-aligned with the batch items: the payloads each
	// item's processing emitted, stream tags in-band. The per-item lists
	// are borrowed — sub-slices of a scratch its producer reuses (runBolt's
	// emits, the decoding slab's) — valid until the next frame.
	Emitted [][]engine.Values
	// BusyNanos (summed service time) and Errors (failed Process calls)
	// are the probe aggregates measured on the worker; the serve side
	// already knows how many items it sent.
	BusyNanos, Errors int64
	// Traced lists, ascending, the batch indices of items the worker timed
	// individually (the batch frame's trace block); WaitNS and ServiceNS
	// align with it — queue wait from batch arrival to Process start, and
	// the Process duration, both on the worker's clock. The trace block is
	// always encoded (possibly empty), so every frame stays canonical.
	Traced            []uint32
	WaitNS, ServiceNS []int64
}

// writeFrame frames payload (which must start at buf[8:] — use the
// append*Frame helpers) and writes it with a single Write call.
// beginFrame/finishFrame split the work so encoders can append the payload
// directly into the framed buffer.
func beginFrame(buf []byte) []byte {
	return append(buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
}

// finishFrame stamps the length and checksum of a beginFrame-built buffer.
func finishFrame(buf []byte) ([]byte, error) {
	payload := buf[8:]
	if len(payload) > MaxFrameBytes {
		return nil, ErrFrameTooBig
	}
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	return buf, nil
}

// maxScratch caps what a frame scratch buffer keeps between frames: one
// huge frame must not pin up to MaxFrameBytes per connection for good.
const maxScratch = 1 << 20

// trimScratch returns buf for reuse, or nil when it outgrew maxScratch.
func trimScratch(buf []byte) []byte {
	if cap(buf) > maxScratch {
		return nil
	}
	return buf
}

// readBufBytes sizes the bufio.Reader each read loop puts between the
// socket and readFrame, so a header and its body (and any frames queued
// behind them) cost one read(2), not two.
const readBufBytes = 32 << 10

// readFrame reads one frame from r into buf (grown as needed, reused
// otherwise) and returns the checksum-verified payload.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The header is read into buf too: a local array would escape through
	// the io.Reader and cost an allocation per frame.
	buf = beginFrame(buf)
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	n, sum := int(binary.BigEndian.Uint32(buf[0:4])), binary.BigEndian.Uint32(buf[4:8])
	if n > MaxFrameBytes {
		return buf, ErrFrameTooBig
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	if crc32.Checksum(buf, castagnoli) != sum {
		return buf, ErrBadCRC
	}
	return buf, nil
}

// appendJSONFrame builds a framed JSON control message of the given kind.
func appendJSONFrame(buf []byte, kind byte, msg any) ([]byte, error) {
	buf = append(beginFrame(buf), kind)
	body, err := json.Marshal(msg)
	if err != nil {
		return nil, err
	}
	return finishFrame(append(buf, body...))
}

// appendHeartbeatFrame builds a framed heartbeat.
func appendHeartbeatFrame(buf []byte) ([]byte, error) {
	return finishFrame(append(beginFrame(buf), kindHeartbeat))
}

// appendBatchFrame builds a framed batch.
func appendBatchFrame(buf []byte, seq uint64, bolt string, items []engine.RemoteItem) ([]byte, error) {
	buf = append(beginFrame(buf), kindBatch)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	if len(bolt) > math.MaxUint16 {
		return nil, fmt.Errorf("worker: bolt name %d bytes long", len(bolt))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(bolt)))
	buf = append(buf, bolt...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(items)))
	for _, it := range items {
		if it.Task < 0 || it.Task > math.MaxUint32 {
			return nil, fmt.Errorf("worker: task %d out of range", it.Task)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(it.Task))
		var err error
		if buf, err = appendValues(buf, it.Values); err != nil {
			return nil, err
		}
	}
	// Trace block: the ascending indices of Traced items. Always present
	// (count may be zero) so the encoding stays canonical.
	nTraced := 0
	for _, it := range items {
		if it.Traced {
			nTraced++
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(nTraced))
	for i, it := range items {
		if it.Traced {
			buf = binary.BigEndian.AppendUint32(buf, uint32(i))
		}
	}
	return finishFrame(buf)
}

// appendResultFrame builds a framed result.
func appendResultFrame(buf []byte, res *resultMsg) ([]byte, error) {
	buf = append(beginFrame(buf), kindResult)
	buf = binary.BigEndian.AppendUint64(buf, res.Seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(res.Emitted)))
	for _, emits := range res.Emitted {
		if len(emits) > math.MaxUint16 {
			return nil, fmt.Errorf("worker: %d emissions from one tuple", len(emits))
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(emits)))
		for _, vs := range emits {
			var err error
			if buf, err = appendValues(buf, vs); err != nil {
				return nil, err
			}
		}
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(res.BusyNanos))
	buf = binary.BigEndian.AppendUint64(buf, uint64(res.Errors))
	// Trace block, always present: per traced item its batch index plus
	// the worker-measured wait and service durations.
	if len(res.WaitNS) != len(res.Traced) || len(res.ServiceNS) != len(res.Traced) {
		return nil, fmt.Errorf("worker: trace block misaligned: %d idx, %d wait, %d service",
			len(res.Traced), len(res.WaitNS), len(res.ServiceNS))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(res.Traced)))
	for i, idx := range res.Traced {
		buf = binary.BigEndian.AppendUint32(buf, idx)
		buf = binary.BigEndian.AppendUint64(buf, uint64(res.WaitNS[i]))
		buf = binary.BigEndian.AppendUint64(buf, uint64(res.ServiceNS[i]))
	}
	return finishFrame(buf)
}

// appendValues encodes one tuple payload: a u16 count then tagged values.
func appendValues(buf []byte, vs engine.Values) ([]byte, error) {
	if len(vs) > math.MaxUint16 {
		return nil, fmt.Errorf("worker: %d-field tuple", len(vs))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(vs)))
	for _, v := range vs {
		var err error
		if buf, err = appendValue(buf, v); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// appendValue encodes one tagged value. An unsupported type is an error:
// the shuttle refuses the batch and the engine self-heals the binding to a
// local executor, so exotic payloads degrade to local processing instead
// of being dropped.
func appendValue(buf []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(buf, tagNil), nil
	case int:
		return binary.BigEndian.AppendUint64(append(buf, tagInt), uint64(x)), nil
	case int64:
		return binary.BigEndian.AppendUint64(append(buf, tagInt64), uint64(x)), nil
	case uint64:
		return binary.BigEndian.AppendUint64(append(buf, tagUint64), x), nil
	case float64:
		return binary.BigEndian.AppendUint64(append(buf, tagFloat), math.Float64bits(x)), nil
	case bool:
		if x {
			return append(buf, tagTrue), nil
		}
		return append(buf, tagFalse), nil
	case string:
		buf = binary.BigEndian.AppendUint32(append(buf, tagString), uint32(len(x)))
		return append(buf, x...), nil
	case []byte:
		buf = binary.BigEndian.AppendUint32(append(buf, tagBytes), uint32(len(x)))
		return append(buf, x...), nil
	default:
		if stream, ok := engine.StreamTagString(v); ok {
			buf = binary.BigEndian.AppendUint32(append(buf, tagStream), uint32(len(stream)))
			return append(buf, stream...), nil
		}
		return nil, fmt.Errorf("worker: unsupported value type %T", v)
	}
}

// slab is what one connection reader decodes into: the shared bump
// allocator every decoded Values, []byte payload and value box is carved
// from (see engine.Slab for the ownership rules), the emit-list scratch,
// and the stream markers it has decoded.
type slab struct {
	engine.Slab
	emits   []engine.Values // decodeResult's flat emit-list scratch, reused per frame
	streams map[string]any  // one boxed stream marker per distinct name
}

// stream returns the stream marker named b, the same box every time for a
// name the connection has seen (the map lookup does not allocate). A
// topology names a handful of short streams: past 64 names, or for a name
// over 64 bytes, the marker is boxed afresh each time.
func (s *slab) stream(b []byte) any {
	if v, ok := s.streams[string(b)]; ok {
		return v
	}
	v := engine.StreamTagValue(string(b))
	if len(s.streams) < 64 && len(b) <= 64 {
		if s.streams == nil {
			s.streams = make(map[string]any)
		}
		s.streams[string(b)] = v
	}
	return v
}

// wire is a strict cursor over one frame payload: every read is
// bounds-checked, and the first failure sticks. Decoded values are carved
// from s.
type wire struct {
	b   []byte
	off int
	err error
	s   *slab
}

func (c *wire) fail() {
	if c.err == nil {
		c.err = errTruncated
	}
	c.off = len(c.b)
}

func (c *wire) u8() byte {
	if c.off+1 > len(c.b) {
		c.fail()
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *wire) u16() uint16 {
	if c.off+2 > len(c.b) {
		c.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v
}

func (c *wire) u32() uint32 {
	if c.off+4 > len(c.b) {
		c.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *wire) u64() uint64 {
	if c.off+8 > len(c.b) {
		c.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *wire) take(n int) []byte {
	if n < 0 || c.off+n > len(c.b) {
		c.fail()
		return nil
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v
}

// remaining reports the unread byte count — the bound used to reject
// forged element counts before allocating for them.
func (c *wire) remaining() int { return len(c.b) - c.off }

// done errors on trailing garbage, so every accepted frame is canonical.
func (c *wire) done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("worker: %d trailing bytes after frame body", len(c.b)-c.off)
	}
	return nil
}

// decodeValue decodes one tagged value; a number, string or byte string is
// boxed in the slab, and a stream marker interned in it. Byte strings are copied out (into the slab): the frame
// buffer is reused for the next read.
func (c *wire) decodeValue() any {
	switch tag := c.u8(); tag {
	case tagNil:
		return nil
	case tagInt:
		return c.s.BoxInt(int(c.u64()))
	case tagInt64:
		return c.s.BoxInt64(int64(c.u64()))
	case tagUint64:
		return c.s.BoxUint64(c.u64())
	case tagFloat:
		return c.s.BoxFloat64(math.Float64frombits(c.u64()))
	case tagTrue:
		return true
	case tagFalse:
		return false
	case tagString:
		return c.s.BoxString(c.take(int(c.u32())))
	case tagBytes:
		b := c.take(int(c.u32()))
		out := c.s.Bytes(len(b))
		copy(out, b)
		return c.s.BoxBytes(out)
	case tagStream:
		return c.s.stream(c.take(int(c.u32())))
	default:
		if c.err == nil {
			c.err = fmt.Errorf("worker: unknown value tag 0x%02x", tag)
			c.off = len(c.b)
		}
		return nil
	}
}

// decodeValues decodes one tuple payload into a Values carved from the slab.
func (c *wire) decodeValues() engine.Values {
	n := int(c.u16())
	if n == 0 || n > c.remaining() { // every value is at least 1 byte
		if n != 0 {
			c.fail()
		}
		return nil
	}
	vs := c.s.Values(n)
	for i := 0; i < n && c.err == nil; i++ {
		vs[i] = c.decodeValue()
	}
	return vs
}

// decodeBatch decodes a kindBatch payload (kind byte included) into m,
// reusing m.Items and m.Bolt capacity and carving the tuples from s.
func decodeBatch(payload []byte, m *batchMsg, s *slab) error {
	c := &wire{b: payload, s: s}
	if c.u8() != kindBatch {
		return errors.New("worker: not a batch frame")
	}
	m.Seq = c.u64()
	m.Bolt = append(m.Bolt[:0], c.take(int(c.u16()))...)
	n := int(c.u32())
	// A task id plus an empty value list is 6 bytes; reject counts the
	// remaining bytes cannot possibly hold before allocating.
	if n > c.remaining()/6 {
		return errTruncated
	}
	m.Items = m.Items[:0]
	for i := 0; i < n && c.err == nil; i++ {
		task := int(c.u32())
		m.Items = append(m.Items, engine.RemoteItem{Task: task, Values: c.decodeValues()})
	}
	// Trace block: strictly ascending in-range indices, or the frame is
	// rejected — a forged block can never mark items out of order.
	nt := int(c.u32())
	if nt > c.remaining()/4 {
		return errTruncated
	}
	prev := -1
	for i := 0; i < nt && c.err == nil; i++ {
		idx := int(c.u32())
		if idx <= prev || idx >= len(m.Items) {
			return fmt.Errorf("worker: trace index %d out of order or range", idx)
		}
		prev = idx
		m.Items[idx].Traced = true
	}
	return c.done()
}

// decodeResult decodes a kindResult payload (kind byte included) into m,
// reusing m.Emitted capacity and carving the tuples from s. The per-item
// emit lists are sub-slices of s.emits: borrowed until the next decode.
func decodeResult(payload []byte, m *resultMsg, s *slab) error {
	c := &wire{b: payload, s: s}
	if c.u8() != kindResult {
		return errors.New("worker: not a result frame")
	}
	m.Seq = c.u64()
	n := int(c.u32())
	// Each per-item emission list is at least a u16 count; the two
	// trailing aggregates take 16 bytes.
	if n > c.remaining()/2 {
		return errTruncated
	}
	m.Emitted = m.Emitted[:0]
	s.emits = s.emits[:0]
	for i := 0; i < n && c.err == nil; i++ {
		ne := int(c.u16())
		if ne > c.remaining()/2 {
			return errTruncated
		}
		var emits []engine.Values
		if ne > 0 {
			start := len(s.emits)
			for j := 0; j < ne && c.err == nil; j++ {
				s.emits = append(s.emits, c.decodeValues())
			}
			emits = s.emits[start:len(s.emits):len(s.emits)]
		}
		m.Emitted = append(m.Emitted, emits)
	}
	m.BusyNanos = int64(c.u64())
	m.Errors = int64(c.u64())
	if m.BusyNanos < 0 || m.Errors < 0 || m.Errors > int64(n) {
		return fmt.Errorf("worker: forged aggregates: busy %d ns, %d errors of %d items", m.BusyNanos, m.Errors, n)
	}
	// Trace block: 20 bytes per entry, strictly ascending in-range indices.
	nt := int(c.u32())
	if nt > c.remaining()/20 {
		return errTruncated
	}
	m.Traced = m.Traced[:0]
	m.WaitNS = m.WaitNS[:0]
	m.ServiceNS = m.ServiceNS[:0]
	prev := -1
	for i := 0; i < nt && c.err == nil; i++ {
		idx := int(c.u32())
		if idx <= prev || idx >= n {
			return fmt.Errorf("worker: trace index %d out of order or range", idx)
		}
		prev = idx
		m.Traced = append(m.Traced, uint32(idx))
		m.WaitNS = append(m.WaitNS, int64(c.u64()))
		m.ServiceNS = append(m.ServiceNS, int64(c.u64()))
	}
	return c.done()
}

// decodeJSONBody unmarshals a control frame's JSON body (after the kind
// byte) strictly.
func decodeJSONBody(payload []byte, into any) error {
	if len(payload) < 1 {
		return errTruncated
	}
	return json.Unmarshal(payload[1:], into)
}
