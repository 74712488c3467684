package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/drs-repro/drs/internal/ingest"
)

// The load generator: one process, `connections` real loopback sockets,
// every input drawn from the seed. Open-loop phases send on a Poisson
// schedule fixed before the phase starts and time every record from its
// due-time, so a stall is charged to the records it delayed; closed-loop
// phases keep sent-minus-completed under a window, reading the SUT's
// completion count from a shared mapped word.

// sleepUntil parks the calling thread until the wall clock reads ns.
// time.Sleep rounds sub-millisecond waits up to about a millisecond on
// Linux; nanosleep(2) overshoots by tens of microseconds.
func sleepUntil(ns int64) {
	for {
		d := ns - time.Now().UnixNano()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-reads the clock
	}
}

// extend grows b by n bytes, reusing its capacity.
func extend(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	return append(b, make([]byte, n)...)
}

// openPhase is one open-loop phase: a fixed schedule that the
// connections drain through a shared cursor.
type openPhase struct {
	tag     uint64
	startNS int64
	offsets []int64  // per request, ns after startNS
	clients []uint32 // per request client index (nil: the connection's own id)
	next    atomic.Int64
}

// closedPhase is one closed-loop phase.
type closedPhase struct {
	tag     uint64
	endNS   int64
	window  int64
	clients []uint32     // client-id cycle (nil: the connection's own id)
	next    atomic.Int64 // request counter
}

// flight is the generator-wide view of what is inside the SUT.
type flight struct {
	sent      atomic.Int64 // records handed to a socket, pre-seeded included
	shed      atomic.Int64 // records refused (they will never complete)
	completed *atomic.Uint64
}

func (f *flight) inSystem() int64 {
	return f.sent.Load() - f.shed.Load() - int64(f.completed.Load())
}

// waitDrained waits until nothing is in flight, up to limit.
func (f *flight) waitDrained(limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for f.inSystem() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// genStats is one connection's account; merged after the run.
type genStats struct {
	acked [phaseCount]bookSum // records the SUT acknowledged
	// inexact marks a phase in which a batch was admitted in part: the
	// reply says how many records got in but not which, so that phase's
	// book holds its count only.
	inexact   [phaseCount]bool
	offered   [phaseCount]uint64
	shed      [phaseCount]uint64
	failed    uint64    // transport errors and verdicts that cannot be booked
	admitNS   []float64 // due-time → verdict, rate phase
	admitDue  []int64   // the due-time of each admit sample, for windowing
	lagNS     []float64
	clientIDs map[uint32]struct{}
	err       error
}

func (g *genStats) merge(o *genStats) {
	for p := 0; p < phaseCount; p++ {
		g.acked[p].merge(o.acked[p])
		g.offered[p] += o.offered[p]
		g.shed[p] += o.shed[p]
		g.inexact[p] = g.inexact[p] || o.inexact[p]
	}
	g.failed += o.failed
	g.admitNS = append(g.admitNS, o.admitNS...)
	g.admitDue = append(g.admitDue, o.admitDue...)
	g.lagNS = append(g.lagNS, o.lagNS...)
	for id := range o.clientIDs {
		if g.clientIDs == nil {
			g.clientIDs = map[uint32]struct{}{}
		}
		g.clientIDs[id] = struct{}{}
	}
	if g.err == nil {
		g.err = o.err
	}
}

func (g *genStats) admitted() uint64 {
	var n uint64
	for p := range g.acked {
		n += g.acked[p].Count
	}
	return n
}

// entry is one pipelined request awaiting its verdict: a TCP frame of
// one record or an HTTP POST of a batch.
type entry struct {
	tag   uint64
	n     int
	dueNS int64
	size  int     // bytes on the wire
	book  bookSum // what the SUT acknowledges if it admits all n
}

// client is one generator connection. Both protocols are pipelined — up
// to pipelineDepth requests outstanding — so the send time never waits on
// an earlier verdict: a writer (the open and closed methods, on the
// phase's goroutine) and a reader goroutine that books the in-order
// replies. The inflight channel is both the reply FIFO and the window.
type client struct {
	conn     net.Conn
	http     bool
	batch    int
	id       uint32
	maker    *recordMaker
	fl       *flight
	inflight chan entry
	readDone chan struct{}
	stats    genStats // writer side
	rstats   genStats // reader side
	buf      []byte
	staged   []entry
}

func dial(w workload, addr string, maker *recordMaker, fl *flight, id uint32) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{
		conn: conn, http: w.Transport != "tcp", batch: w.Batch, id: id, maker: maker, fl: fl,
		inflight: make(chan entry, pipelineDepth),
		readDone: make(chan struct{}),
		stats:    genStats{clientIDs: map[uint32]struct{}{}},
	}
	if !c.http {
		// The TCP protocol's first frame names the client.
		hello := fmt.Sprintf("c%d", id)
		c.stats.clientIDs[id] = struct{}{}
		c.buf = binary.BigEndian.AppendUint32(c.buf, uint32(len(hello)))
		c.buf = append(c.buf, hello...)
		if _, err := conn.Write(c.buf); err != nil {
			conn.Close()
			return nil, err
		}
		c.buf = c.buf[:0]
	}
	go c.read()
	return c, nil
}

// read books one verdict per in-flight entry, in order.
func (c *client) read() {
	defer close(c.readDone)
	br := bufio.NewReaderSize(c.conn, 4096)
	st := &c.rstats
	for e := range c.inflight {
		admitted := 0
		if st.err == nil {
			if admitted, st.err = c.verdict(br, e.n); st.err != nil {
				// Nothing after a broken reply can be booked; closing the
				// socket fails the writer fast instead of leaving it to
				// fill a pipe nobody drains.
				c.conn.Close()
			}
		}
		if st.err != nil {
			st.failed += uint64(e.n)
			c.fl.shed.Add(int64(e.n))
			continue
		}
		if e.tag == phaseRate {
			st.admitNS = append(st.admitNS, float64(time.Now().UnixNano()-e.dueNS))
			st.admitDue = append(st.admitDue, e.dueNS)
		}
		switch admitted {
		case e.n:
			st.acked[e.tag].merge(e.book)
		case 0:
			st.shed[e.tag] += uint64(e.n)
			c.fl.shed.Add(int64(e.n))
		default:
			// A full ring took part of the batch. Refusals are backpressure,
			// not failures, but the book of this phase is now a count.
			st.acked[e.tag].Count += uint64(admitted)
			st.inexact[e.tag] = true
			st.shed[e.tag] += uint64(e.n - admitted)
			c.fl.shed.Add(int64(e.n - admitted))
		}
	}
}

// verdict reads one reply and returns how many of the n records the SUT
// admitted.
func (c *client) verdict(br *bufio.Reader, n int) (int, error) {
	if !c.http {
		var reply [5]byte
		if _, err := io.ReadFull(br, reply[:]); err != nil {
			return 0, err
		}
		if reply[0] == ingest.TCPAck {
			return 1, nil
		}
		return 0, nil
	}
	status, admitted, err := readHTTPVerdict(br)
	switch {
	case err != nil:
		return 0, err
	case status == 202:
		return n, nil
	case status == 429:
		return admitted, nil
	default:
		return 0, fmt.Errorf("http status %d", status)
	}
}

// stage appends one request — records [first, first+batch) of a phase,
// all due at dueNS — to the pending write.
func (c *client) stage(tag, first uint64, dueNS int64, clientID uint32) {
	e := entry{tag: tag, n: c.batch, dueNS: dueNS}
	start := len(c.buf)
	if c.http {
		c.buf = append(c.buf, "POST /ingest HTTP/1.1\r\nHost: sut\r\nX-Client-ID: c"...)
		c.buf = strconv.AppendUint(c.buf, uint64(clientID), 10)
		bodyLen := recordLen
		if c.batch > 1 {
			c.buf = append(c.buf, "\r\nContent-Type: application/x-ndjson"...)
			bodyLen = c.batch * (recordLen + 1)
		}
		c.buf = append(c.buf, "\r\nContent-Length: "...)
		c.buf = strconv.AppendInt(c.buf, int64(bodyLen), 10)
		c.buf = append(c.buf, "\r\n\r\n"...)
		c.stats.clientIDs[clientID] = struct{}{}
	}
	for j := 0; j < c.batch; j++ {
		if !c.http {
			c.buf = binary.BigEndian.AppendUint32(c.buf, recordLen)
		}
		off := len(c.buf)
		c.buf = extend(c.buf, recordLen)
		seq := tag<<phaseShift | (first + uint64(j))
		c.maker.build(c.buf[off:], seq, dueNS)
		e.book.add(seq, crc32.Checksum(c.buf[off:], castagnoli))
		if c.http && c.batch > 1 {
			c.buf = append(c.buf, '\n')
		}
	}
	e.size = len(c.buf) - start
	c.staged = append(c.staged, e)
}

// flush writes the staged requests. Entries enter the reply FIFO before
// their bytes leave; when the pipeline is full the bytes staged so far go
// out first, so the wait is always for replies that can arrive.
func (c *client) flush() {
	written, pos := 0, 0 // bytes of c.buf on the wire; offset of the next entry
	for _, e := range c.staged {
		select {
		case c.inflight <- e:
		default:
			c.write(c.buf[written:pos])
			written = pos
			c.inflight <- e
		}
		pos += e.size
		c.stats.offered[e.tag] += uint64(e.n)
		c.fl.sent.Add(int64(e.n))
	}
	c.write(c.buf[written:pos])
	c.buf, c.staged = c.buf[:0], c.staged[:0]
}

func (c *client) write(p []byte) {
	if len(p) == 0 {
		return
	}
	if _, err := c.conn.Write(p); err != nil && c.stats.err == nil {
		c.stats.err = err
	}
}

func (c *client) open(ph *openPhase) {
	n := int64(len(ph.offsets))
	clientOf := func(k int64) uint32 {
		if ph.clients != nil {
			return ph.clients[k]
		}
		return c.id
	}
	for c.stats.err == nil {
		k := ph.next.Add(1) - 1
		if k >= n {
			return
		}
		due := ph.startNS + ph.offsets[k]
		sleepUntil(due)
		c.stage(ph.tag, uint64(k)*uint64(c.batch), due, clientOf(k))
		// Everything else already due leaves in the same write.
		now := time.Now().UnixNano()
		for len(c.staged) < pipelineDepth {
			k = ph.next.Load()
			if k >= n || ph.startNS+ph.offsets[k] > now {
				break
			}
			if ph.next.CompareAndSwap(k, k+1) {
				c.stage(ph.tag, uint64(k)*uint64(c.batch), ph.startNS+ph.offsets[k], clientOf(k))
			}
		}
		if ph.tag == phaseRate {
			// Lag is how late the generator itself ran: due-time to ready
			// to write. A wait for the pipeline window after this point is
			// the SUT's backpressure, and the admit latency carries it.
			now = time.Now().UnixNano()
			for _, e := range c.staged {
				c.stats.lagNS = append(c.stats.lagNS, float64(now-e.dueNS))
			}
		}
		c.flush()
	}
}

func (c *client) closed(ph *closedPhase) {
	const burstRecords = 64
	for c.stats.err == nil {
		now := time.Now().UnixNano()
		if now >= ph.endNS {
			return
		}
		room := (ph.window - c.fl.inSystem()) / int64(c.batch)
		if room <= 0 {
			sleepUntil(now + 50_000)
			continue
		}
		room = min(room, max(burstRecords/int64(c.batch), 1))
		first := ph.next.Add(room) - room
		for j := int64(0); j < room; j++ {
			id := c.id
			if ph.clients != nil {
				id = ph.clients[(first+j)%int64(len(ph.clients))]
			}
			c.stage(ph.tag, uint64(first+j)*uint64(c.batch), now, id)
		}
		c.flush()
	}
}

func (c *client) finish() *genStats {
	close(c.inflight)
	select {
	case <-c.readDone:
	case <-time.After(drainSeconds * time.Second):
		c.conn.Close() // unblocks the reader
		<-c.readDone
	}
	c.conn.Close()
	if c.rstats.err != nil {
		c.stats.err = c.rstats.err // the reader's error is the cause; the writer's follows from it
	}
	c.stats.merge(&c.rstats)
	return &c.stats
}

// readHTTPVerdict reads one response: the status code and the
// "admitted" count of ingest's JSON body.
func readHTTPVerdict(br *bufio.Reader) (status, admitted int, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, 0, err
	}
	if len(line) < 12 {
		return 0, 0, fmt.Errorf("short status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, 0, fmt.Errorf("status line %q: %w", line, err)
	}
	length := -1
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return 0, 0, err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := headerValue(line, "content-length:"); ok {
			if length, err = strconv.Atoi(v); err != nil {
				return 0, 0, fmt.Errorf("content-length %q: %w", v, err)
			}
		}
	}
	if length < 0 {
		return 0, 0, errors.New("response without content-length")
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(br, body); err != nil {
		return 0, 0, err
	}
	if i := bytes.Index(body, []byte(`"admitted":`)); i >= 0 {
		rest := body[i+len(`"admitted":`):]
		n := 0
		for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
			n++
		}
		admitted, _ = strconv.Atoi(string(rest[:n]))
	}
	return status, admitted, nil
}

func headerValue(line []byte, lowerName string) (string, bool) {
	if len(line) < len(lowerName) || !bytes.EqualFold(line[:len(lowerName)], []byte(lowerName)) {
		return "", false
	}
	return string(bytes.TrimSpace(line[len(lowerName):])), true
}

// ---- the generator ----

type generator struct {
	w       workload
	seed    int64
	fl      *flight
	clients []*client
}

func newGenerator(w workload, seed int64, ready sutReady, completed *atomic.Uint64, preseeded int) (*generator, error) {
	g := &generator{w: w, seed: seed, fl: &flight{completed: completed}}
	g.fl.sent.Store(int64(preseeded))
	maker := newRecordMaker(seed)
	addr := ready.HTTPAddr
	if w.Transport == "tcp" {
		addr = ready.TCPAddr
	}
	for i := 0; i < connections; i++ {
		c, err := dial(w, addr, maker, g.fl, uint32(i))
		if err != nil {
			g.finish()
			return nil, err
		}
		g.clients = append(g.clients, c)
	}
	return g, nil
}

func (g *generator) each(fn func(*client)) {
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// runOpen plays one open-loop phase and returns its start and end on the
// wall clock. The schedule is a pure function of (seed, tag, segments).
func (g *generator) runOpen(tag uint64, segs []segment) (startNS, endNS int64) {
	rng := rand.New(rand.NewSource(g.seed ^ int64(tag+1)*0x9e3779b9))
	ph := &openPhase{tag: tag, offsets: poissonOffsets(rng, segs)}
	if g.w.ZipfS > 1 {
		ph.clients = zipfIDs(rng, g.w.ZipfS, g.w.Clients, len(ph.offsets))
	}
	total := 0.0
	for _, s := range segs {
		total += s.Seconds
	}
	ph.startNS = time.Now().UnixNano() + 2_000_000
	g.each(func(c *client) { c.open(ph) })
	endNS = ph.startNS + int64(total*1e9)
	sleepUntil(endNS)
	return ph.startNS, endNS
}

// runClosed plays one closed-loop phase.
func (g *generator) runClosed(tag uint64, seconds float64) (startNS, endNS int64) {
	startNS = time.Now().UnixNano()
	ph := &closedPhase{tag: tag, endNS: startNS + int64(seconds*1e9), window: int64(g.w.Window)}
	if g.w.ZipfS > 1 {
		rng := rand.New(rand.NewSource(g.seed ^ int64(tag+1)*0x9e3779b9))
		ph.clients = zipfIDs(rng, g.w.ZipfS, g.w.Clients, 1<<16)
	}
	g.each(func(c *client) { c.closed(ph) })
	return startNS, time.Now().UnixNano()
}

func (g *generator) finish() *genStats {
	var total genStats
	for _, c := range g.clients {
		total.merge(c.finish())
	}
	g.clients = nil
	return &total
}
