package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/drs-repro/drs/internal/engine"
)

// TCP wire protocol: every frame is a 4-byte big-endian length followed by
// that many payload bytes. The first frame of a connection carries the
// client id; each later frame carries one record. The server answers every
// record frame with 5 bytes — one status byte (TCPAck or TCPNack) and a
// 4-byte big-endian retry-after hint in milliseconds (0 on ack) — so a
// shed is explicit backpressure the client can pace itself by, never a
// silent drop.
const (
	// TCPAck is the status byte of an admitted record.
	TCPAck = 0x00
	// TCPNack is the status byte of a shed record; the retry-after field
	// says when to try again.
	TCPNack = 0x01
)

// Read deadlines on the TCP front door, equal to the HTTP side's slowloris
// guards (node/http.go): a client gets tcpHelloTimeout to deliver its
// hello frame and tcpIdleTimeout to deliver each record frame after it
// before the server reclaims the connection's goroutine and descriptor.
const (
	tcpHelloTimeout = 5 * time.Second
	tcpIdleTimeout  = 2 * time.Minute
)

// ServeTCP accepts length-prefixed record streams on l until the listener
// closes (or the gate is closed). Each connection runs on its own
// goroutine; per-connection errors end that connection only.
func ServeTCP(l net.Listener, g *Gate, cfg ListenerConfig) error {
	cfg = cfg.withDefaults()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || g.closed.Load() {
				return nil
			}
			return err
		}
		go serveConn(conn, g, cfg)
	}
}

// tcpReadBuffer is the one read buffer a connection owns: every frame a
// read(2) delivered whole is admitted without going back to the socket.
const tcpReadBuffer = 64 << 10

// connState is what one connection's loop reuses from burst to burst. It
// is one heap object so that handing its reply vector to the connection
// costs no allocation per burst.
type connState struct {
	slab    engine.Slab // every record, its one-slot Values and its box are carved from it
	burst   burst
	replies [burstMax][5]byte
	vec     net.Buffers // the replies of one burst, one 5-byte slice each
	out     net.Buffers // what WriteTo consumes: vec's header, re-aimed per burst
}

// serveConn drives one client connection: hello frame, then bursts of
// records. Each round blocks for one frame, takes every further frame the
// read buffer already holds whole (up to burstMax), admits them as a unit
// and answers them with one vectored write — so the loop never waits on the
// socket while replies are unsent, and a client that sends one frame and
// waits for its verdict is served as promptly as one that pipelines. A
// client that stalls — before its hello or mid-frame — is disconnected when
// the read deadline armed before each blocking read passes.
func serveConn(conn net.Conn, g *Gate, cfg ListenerConfig) {
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(tcpHelloTimeout)); err != nil {
		return
	}
	rd := bufio.NewReaderSize(conn, tcpReadBuffer)
	st := new(connState)
	n, err := frameLen(rd)
	if err != nil {
		return
	}
	id, err := readRecord(rd, &st.slab, n)
	if err != nil {
		return
	}
	cl := cfg.client(g, string(id))
	defer cl.release()
	for {
		if err := conn.SetReadDeadline(time.Now().Add(tcpIdleTimeout)); err != nil {
			return
		}
		n, err := frameLen(rd)
		if err != nil {
			return
		}
		for n >= 0 {
			// Every offered record gets its own bytes before admit decides: a
			// shed record costs the carve too.
			rec, err := readRecord(rd, &st.slab, n)
			if err != nil {
				return
			}
			v := st.slab.Values(1)
			v[0] = st.slab.BoxBytes(rec)
			st.burst.add(v)
			if len(st.burst.offers) == burstMax {
				break
			}
			n = bufferedFrameLen(rd)
		}
		st.burst.admit(cl)
		if err := st.reply(conn); err != nil {
			return
		}
	}
}

// reply answers the admitted burst, a 5-byte reply per offer in frame
// order, and empties it. The replies go out as a net.Buffers: one writev
// on a TCP connection, and one Write per reply through anything that wraps
// one — an observer of the stream sees the same 5-byte writes either way.
func (st *connState) reply(conn net.Conn) error {
	st.vec = st.vec[:0]
	for i := range st.burst.offers {
		r := &st.replies[i]
		r[0] = TCPAck
		var retryMS uint32
		if v := st.burst.offers[i].verdict; !v.Admitted {
			r[0] = TCPNack
			retryMS = uint32(v.RetryAfter / time.Millisecond)
		}
		binary.BigEndian.PutUint32(r[1:], retryMS)
		st.vec = append(st.vec, r[:])
	}
	st.burst.reset()
	st.out = st.vec // WriteTo consumes the header it is given
	_, err := st.out.WriteTo(conn)
	return err
}

// readRecord reads the n payload bytes of a frame into bytes of their own.
// A record the slab carves from a chunk, or one the read buffer already
// holds whole, is taken in one step. A larger one is read as it arrives,
// into a buffer that doubles up to n: what a connection makes the server
// allocate is bounded by what it has actually sent, not by the length it
// claims.
func readRecord(rd *bufio.Reader, sl *engine.Slab, n int) ([]byte, error) {
	if n <= engine.SlabBytesChunk/4 || n <= rd.Buffered() {
		rec := sl.Bytes(n)
		_, err := io.ReadFull(rd, rec)
		return rec, err
	}
	rec := make([]byte, 0, min(n, tcpReadBuffer))
	for len(rec) < n {
		if len(rec) == cap(rec) {
			rec = append(make([]byte, 0, min(n, 2*cap(rec))), rec...)
		}
		k, err := rd.Read(rec[len(rec):cap(rec)])
		if rec = rec[:len(rec)+k]; err != nil {
			return nil, err
		}
	}
	return rec[:n:n], nil
}

// frameLen blocks for the next frame's 4-byte length prefix and consumes
// it. A length above maxRecordBytes is an error: the caller disconnects.
func frameLen(rd *bufio.Reader) (int, error) {
	hdr, err := rd.Peek(4)
	if err != nil {
		return 0, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > maxRecordBytes {
		return 0, fmt.Errorf("ingest: %d-byte frame exceeds the %d-byte limit", n, maxRecordBytes)
	}
	_, err = rd.Discard(4)
	return n, err
}

// bufferedFrameLen is frameLen for a frame the read buffer already holds
// whole: it never touches the socket, and answers -1 when the next frame
// is not all there yet — or is oversize, which the next blocking frameLen
// reports once the frames before it have been answered.
func bufferedFrameLen(rd *bufio.Reader) int {
	if rd.Buffered() < 4 {
		return -1
	}
	hdr, _ := rd.Peek(4)
	n := int(binary.BigEndian.Uint32(hdr))
	if n > maxRecordBytes || rd.Buffered() < 4+n {
		return -1
	}
	_, _ = rd.Discard(4) // the bytes are buffered: it cannot fail
	return n
}

// DialTCP opens a client connection speaking the ingest TCP protocol and
// sends the hello frame. It is the client half the load generator, the
// smoke test and the live demo share.
func DialTCP(addr, clientID string) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &TCPClient{conn: conn}
	if err := c.writeFrame([]byte(clientID)); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// TCPClient is one client-side ingest connection.
type TCPClient struct {
	conn net.Conn
}

// Send offers one record and returns the server's verdict: admitted, or
// the retry-after backpressure hint of a NACK.
func (c *TCPClient) Send(rec []byte) (admitted bool, retryAfter time.Duration, err error) {
	if err := c.writeFrame(rec); err != nil {
		return false, 0, err
	}
	var reply [5]byte
	if _, err := io.ReadFull(c.conn, reply[:]); err != nil {
		return false, 0, err
	}
	retry := time.Duration(binary.BigEndian.Uint32(reply[1:])) * time.Millisecond
	return reply[0] == TCPAck, retry, nil
}

// Close closes the connection.
func (c *TCPClient) Close() error { return c.conn.Close() }

func (c *TCPClient) writeFrame(p []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(p)))
	if _, err := c.conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := c.conn.Write(p)
	return err
}
