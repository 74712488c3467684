package main

import (
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/ingest"
	"github.com/drs-repro/drs/internal/loop"
)

// The decorators of the traced pass. Each wraps one public seam of a
// layer, times the calls through it from outside and forwards everything
// else untouched; none is installed on the pass that produces the
// end-to-end metrics.

// ---- ingest: HTTP handler ----

// timedHandler times ServeHTTP and stamps arrive/handled on every record
// of the body it saw go by.
type timedHandler struct {
	inner  http.Handler
	table  *stampTable
	handle *collector
	bodies sync.Pool
}

type teeBody struct {
	io.ReadCloser
	seen []byte
}

func (b *teeBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.seen = append(b.seen, p[:n]...)
	return n, err
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		h.inner.ServeHTTP(w, r)
		return
	}
	tee, _ := h.bodies.Get().(*teeBody)
	if tee == nil {
		tee = &teeBody{}
	}
	tee.ReadCloser, tee.seen = r.Body, tee.seen[:0]
	r.Body = tee
	start := time.Now().UnixNano()
	h.inner.ServeHTTP(w, r)
	end := time.Now().UnixNano()
	h.handle.add(end - start)
	for off := 0; off+recordLen <= len(tee.seen); off += recordLen + 1 {
		if seq, ok := hex16(tee.seen[off:]); ok {
			if st := h.table.at(seq); st != nil {
				st.arrive, st.handled = start, end
			}
		}
	}
	tee.ReadCloser = nil
	h.bodies.Put(tee)
}

// ---- ingest: TCP listener ----

// timedListener hands ServeTCP connections that follow the frame
// protocol from outside: a frame fully read is "arrive", the 5-byte
// reply written is "handled".
type timedListener struct {
	net.Listener
	table  *stampTable
	handle *collector
}

func (l *timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, table: l.table, handle: l.handle}, nil
}

type pendingFrame struct {
	seq  uint64
	read int64
}

// timedConn parses the length-prefixed stream as the bytes flow through
// Read. One goroutine (ingest's serveConn) owns a connection, so the
// state needs no lock.
type timedConn struct {
	net.Conn
	table  *stampTable
	handle *collector

	hdr     [4]byte
	hdrN    int
	payload int // bytes of the current payload still to come
	head    [16]byte
	headN   int
	frames  int
	pending []pendingFrame
}

func (c *timedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.feed(p[:n])
	return n, err
}

func (c *timedConn) feed(b []byte) {
	for len(b) > 0 {
		if c.payload == 0 {
			k := copy(c.hdr[c.hdrN:], b)
			c.hdrN += k
			b = b[k:]
			if c.hdrN < len(c.hdr) {
				return
			}
			c.hdrN, c.headN = 0, 0
			c.payload = int(binary.BigEndian.Uint32(c.hdr[:]))
			if c.payload == 0 {
				c.frameDone()
			}
			continue
		}
		k := len(b)
		if k > c.payload {
			k = c.payload
		}
		if c.headN < len(c.head) {
			c.headN += copy(c.head[c.headN:], b[:k])
		}
		c.payload -= k
		b = b[k:]
		if c.payload == 0 {
			c.frameDone()
		}
	}
}

func (c *timedConn) frameDone() {
	c.frames++
	if c.frames == 1 {
		return // the hello frame carries the client id and gets no reply
	}
	seq, _ := hex16(c.head[:c.headN])
	c.pending = append(c.pending, pendingFrame{seq: seq, read: time.Now().UnixNano()})
}

func (c *timedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if len(p) == 5 && len(c.pending) > 0 {
		now := time.Now().UnixNano()
		f := c.pending[0]
		c.pending = c.pending[:copy(c.pending, c.pending[1:])]
		c.handle.add(now - f.read)
		if st := c.table.at(f.seq); st != nil {
			st.arrive, st.handled = f.read, now
		}
	}
	return n, err
}

// ---- ingest: ring (the spout's source) ----

// sourceProbe is what the source decorators share: pop stamps into the
// table, batch sizes, ring depth, and the ack delay of acked batches.
type sourceProbe struct {
	table   *stampTable
	ring    *ingest.Ring
	pops    atomic.Int64
	popped  atomic.Int64
	depth   atomic.Int64 // max ring backlog seen right after a pop
	ackWait *collector   // last sink exit of a batch → its ack callback
}

func (p *sourceProbe) observe(batch []engine.Values) []uint64 {
	now := time.Now().UnixNano()
	p.pops.Add(1)
	p.popped.Add(int64(len(batch)))
	if d := int64(p.ring.Len()); d > p.depth.Load() {
		p.depth.Store(d) // single consumer: no CAS needed
	}
	seqs := make([]uint64, 0, len(batch))
	for _, v := range batch {
		rec, _ := v[0].([]byte)
		if seq, ok := hex16(rec); ok {
			if st := p.table.at(seq); st != nil {
				st.pop = now
				seqs = append(seqs, seq)
			}
		}
	}
	return seqs
}

func (p *sourceProbe) wrapAck(ack func(), seqs []uint64) func() {
	if ack == nil {
		return nil
	}
	return func() {
		now := time.Now().UnixNano()
		var last int64
		for _, seq := range seqs {
			if st := p.table.at(seq); st != nil && st.exit[stageCount-1] > last {
				last = st.exit[stageCount-1]
			}
		}
		if last > 0 {
			p.ackWait.add(now - last)
		}
		ack()
	}
}

// NetworkSpout picks its drain path by type assertion, so the decorator
// must expose exactly the interface set of what it wraps — no more (the
// spout would call a method the source cannot serve) and no less (acks
// or trace ids would be dropped). One type per combination.
type plainSource struct {
	inner engine.BatchSource
	probe *sourceProbe
}

func (s *plainSource) PopBatch(done <-chan struct{}, buf []engine.Values) ([]engine.Values, bool) {
	batch, ok := s.inner.PopBatch(done, buf)
	if ok {
		s.probe.observe(batch)
	}
	return batch, ok
}

type ackedSource struct{ plainSource }

func (s *ackedSource) PopBatchAcked(done <-chan struct{}, buf []engine.Values) ([]engine.Values, func(), bool) {
	batch, ack, ok := s.inner.(engine.AckBatchSource).PopBatchAcked(done, buf)
	if !ok {
		return batch, ack, ok
	}
	return batch, s.probe.wrapAck(ack, s.probe.observe(batch)), true
}

type tracedSource struct{ plainSource }

func (s *tracedSource) PopBatchTraced(done <-chan struct{}, buf []engine.Values, ids []uint64) ([]engine.Values, []uint64, func(), bool) {
	batch, traces, ack, ok := s.inner.(engine.TracedBatchSource).PopBatchTraced(done, buf, ids)
	if !ok {
		return batch, traces, ack, ok
	}
	return batch, traces, s.probe.wrapAck(ack, s.probe.observe(batch)), true
}

type ackedTracedSource struct{ ackedSource }

func (s *ackedTracedSource) PopBatchTraced(done <-chan struct{}, buf []engine.Values, ids []uint64) ([]engine.Values, []uint64, func(), bool) {
	return (&tracedSource{s.plainSource}).PopBatchTraced(done, buf, ids)
}

func decorateSource(inner engine.BatchSource, probe *sourceProbe) engine.BatchSource {
	base := plainSource{inner: inner, probe: probe}
	_, acked := inner.(engine.AckBatchSource)
	_, traced := inner.(engine.TracedBatchSource)
	switch {
	case acked && traced:
		return &ackedTracedSource{ackedSource{base}}
	case acked:
		return &ackedSource{base}
	case traced:
		return &tracedSource{base}
	default:
		return &base
	}
}

// ---- worker: shuttle and wire ----

// timedRemote times ProcessBatch call → done. The engine compares
// remote executors with ==, so one wrapper per machine is kept.
type timedRemote struct {
	inner   engine.RemoteExecutor
	rtt     *collector
	batches atomic.Int64
	items   atomic.Int64
}

func (t *timedRemote) ProcessBatch(bolt string, items []engine.RemoteItem, done func(engine.RemoteResult, error)) error {
	start := time.Now()
	t.batches.Add(1)
	t.items.Add(int64(len(items)))
	return t.inner.ProcessBatch(bolt, items, func(res engine.RemoteResult, err error) {
		t.rtt.add(int64(time.Since(start)))
		done(res, err)
	})
}

// countingListener counts the bytes that cross the worker listener.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, bytes: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// ---- loop / core / cluster ----

// timedTarget times Rebalance, the engine's pause as the loop pays it.
type timedTarget struct {
	loop.Target
	mu      sync.Mutex
	count   int
	pauseNS int64
}

func (t *timedTarget) Rebalance(alloc map[string]int, pause time.Duration) error {
	start := time.Now()
	err := t.Target.Rebalance(alloc, pause)
	t.mu.Lock()
	t.count++
	t.pauseNS += int64(time.Since(start))
	t.mu.Unlock()
	return err
}

// roundNote is one control round as the stepper decorator saw it.
type roundNote struct {
	AtNS       int64   `json:"at_ns"`
	Lambda0    float64 `json:"lambda0"`
	ResidualMS float64 `json:"residual_ms"` // measured mean sojourn − model E[T]
	HasModel   bool    `json:"has_model"`
}

// timedStepper times Step and keeps each round's snapshot view: the
// estimated arrival rate and how far the model sits from the measurement.
type timedStepper struct {
	inner  core.Stepper
	tmax   float64
	step   *collector
	mu     sync.Mutex
	rounds []roundNote
}

// Tmax forwards the controller's target: the supervisor probes its
// stepper for it when it reports to the scheduler.
func (s *timedStepper) Tmax() float64 { return s.tmax }

func (s *timedStepper) Step(snap core.Snapshot) (core.Decision, error) {
	start := time.Now()
	d, err := s.inner.Step(snap)
	s.step.add(int64(time.Since(start)))
	note := roundNote{AtNS: start.UnixNano(), Lambda0: snap.Lambda0}
	if m, merr := core.NewModel(snap.Lambda0, snap.Ops); merr == nil && snap.MeasuredSojourn > 0 {
		if est, eerr := m.ExpectedSojourn(snap.Alloc); eerr == nil && est < 1e6 {
			note.ResidualMS, note.HasModel = (snap.MeasuredSojourn-est)*1e3, true
		}
	}
	s.mu.Lock()
	s.rounds = append(s.rounds, note)
	s.mu.Unlock()
	return d, err
}

// timedLease times Resize. Embedding the lease keeps the optional
// interfaces the supervisor probes for (Report, LostSlots) intact.
type timedLease struct {
	*cluster.Tenant
	resize *collector
}

func (l *timedLease) Resize(target int) (cluster.Transition, error) {
	start := time.Now()
	tr, err := l.Tenant.Resize(target)
	l.resize.add(int64(time.Since(start)))
	return tr, err
}

// countSink is the in-memory obs.Sink of the benchmark: the decision log
// and the tracer encode into it exactly as into a file, nothing is kept.
type countSink struct {
	bytes atomic.Int64
}

func (s *countSink) Write(batch []byte) { s.bytes.Add(int64(len(batch))) }
func (s *countSink) Close() error       { return nil }
