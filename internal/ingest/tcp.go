package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/drs-repro/drs/internal/engine"
)

// valuesFor wraps one decoded client record as a tuple payload.
func valuesFor(rec []byte) engine.Values { return engine.Values{rec} }

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

// serveConn drives one client connection: hello frame, then records. A
// client that stalls — before its hello or mid-stream — is disconnected
// when the read deadline armed before each frame passes.
func serveConn(conn net.Conn, g *Gate, cfg ListenerConfig) {
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(tcpHelloTimeout)); err != nil {
		return
	}
	id, err := readFrame(conn, nil)
	if err != nil {
		return
	}
	cl := cfg.client(g, string(id))
	var reply [5]byte
	var buf []byte // reused frame buffer; admitted payloads are copied out
	for {
		if err := conn.SetReadDeadline(time.Now().Add(tcpIdleTimeout)); err != nil {
			return
		}
		buf, err = readFrame(conn, buf[:0])
		if err != nil {
			return
		}
		// The frame buffer is reused for the next read, so every offered
		// record gets its own copy before Offer decides: a shed record
		// costs the allocation too.
		rec := make([]byte, len(buf))
		copy(rec, buf)
		v := cl.Offer(valuesFor(rec))
		if v.Admitted {
			reply[0] = TCPAck
			binary.BigEndian.PutUint32(reply[1:], 0)
		} else {
			reply[0] = TCPNack
			binary.BigEndian.PutUint32(reply[1:], uint32(v.RetryAfter/time.Millisecond))
		}
		if _, err := conn.Write(reply[:]); err != nil {
			return
		}
	}
}

// readFrame reads one length-prefixed frame into buf (growing it as
// needed) and returns the payload.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxRecordBytes {
		return nil, fmt.Errorf("ingest: %d-byte frame exceeds the %d-byte limit", n, maxRecordBytes)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
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
