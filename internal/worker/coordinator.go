package worker

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/obs"
)

// Default protocol timers. The heartbeat is deliberately fast — worker
// death must surface within a control-loop tick so churn re-arbitration
// fires while the surge is still shapeable.
const (
	// DefaultHeartbeat is the worker's heartbeat period.
	DefaultHeartbeat = 250 * time.Millisecond
	// DefaultLease is the silence window after which a worker is declared
	// dead and its machine failed.
	DefaultLease = 1200 * time.Millisecond
	// DefaultWriteTimeout bounds one frame write; a peer that cannot
	// absorb a frame in this window is treated as dead (the engine
	// replays the affected batches).
	DefaultWriteTimeout = 5 * time.Second
)

// errShuttleDead is returned by ProcessBatch once the worker connection
// failed; the engine responds by self-healing the binding.
var errShuttleDead = errors.New("worker: shuttle connection is down")

// CoordinatorConfig parameterizes the serve-side registration endpoint.
type CoordinatorConfig struct {
	// Seed is the topology seed handed to every worker, so their bolt
	// instances are bit-identical to the ones the serve process builds.
	Seed int64
	// Bind assigns a registering worker its machine identity (a cluster
	// pool machine id). An error refuses the registration.
	Bind func(worker string, pid int) (machine int, err error)
	// OnJoin fires after a worker finishes registration, outside any
	// coordinator lock.
	OnJoin func(machine int)
	// OnDeath fires when a worker's lease lapses or its connection dies,
	// after the shuttle has failed its in-flight batches.
	OnDeath func(machine int)
	// DecisionLog, when set, receives worker-join/worker-death records
	// (worker name, machine id) as the lease lifecycle turns over.
	DecisionLog *obs.Log
}

// Coordinator accepts worker registrations and keeps one Shuttle per live
// worker. It is the serve-side half of the worker protocol; the cluster
// wiring (machine ids, churn) stays behind the Bind/OnDeath callbacks so
// the coordinator itself has no scheduler dependency.
type Coordinator struct {
	cfg CoordinatorConfig

	mu      sync.Mutex
	workers map[int]*Shuttle
	joined  *sync.Cond // signaled on every join/death
	closed  bool
	wg      sync.WaitGroup

	// Cumulative lease-lifecycle counters, exported via /metrics.
	joins  atomic.Int64
	deaths atomic.Int64
}

// NewCoordinator builds a coordinator; call Serve with a listener to
// start accepting workers.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	c := &Coordinator{cfg: cfg, workers: make(map[int]*Shuttle)}
	c.joined = sync.NewCond(&c.mu)
	return c
}

// Serve accepts worker connections on l until the listener closes. Each
// connection runs its own registration handshake and reader goroutine;
// Serve itself blocks, so callers run it on a goroutine.
func (c *Coordinator) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		c.wg.Add(1)
		go c.handle(conn)
	}
}

// handle runs one worker connection: hello/welcome handshake, then the
// reader loop that dispatches results and renews the lease.
func (c *Coordinator) handle(conn net.Conn) {
	defer c.wg.Done()
	defer conn.Close()
	// Registration must complete within one lease window.
	_ = conn.SetReadDeadline(time.Now().Add(DefaultLease))
	payload, err := readFrame(conn, nil)
	if err != nil || len(payload) == 0 || payload[0] != kindHello {
		return
	}
	var hello helloMsg
	if err := decodeJSONBody(payload, &hello); err != nil {
		return
	}
	if c.cfg.Bind == nil {
		return
	}
	machine, err := c.cfg.Bind(hello.Worker, hello.Pid)
	if err != nil {
		return
	}
	welcome := welcomeMsg{
		Machine:     machine,
		Seed:        c.cfg.Seed,
		HeartbeatMS: DefaultHeartbeat.Milliseconds(),
	}
	frame, err := appendJSONFrame(nil, kindWelcome, welcome)
	if err != nil {
		return
	}
	_ = conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
	if _, err := conn.Write(frame); err != nil {
		return
	}
	s := &Shuttle{
		machine: machine,
		conn:    conn,
		pending: make(map[uint64]func(engine.RemoteResult, error)),
	}
	if !c.register(machine, s) {
		return
	}
	c.joins.Add(1)
	c.cfg.DecisionLog.Emit(&obs.Record{Kind: obs.KindWorkerJoin,
		Peer: hello.Worker, To: machine})
	if c.cfg.OnJoin != nil {
		c.cfg.OnJoin(machine)
	}
	// The reader is THE serializer: every done callback — result or
	// failure — runs here, so the engine's per-executor appliers never
	// race.
	s.readLoop()
	c.unregister(machine, s)
	c.deaths.Add(1)
	c.cfg.DecisionLog.Emit(&obs.Record{Kind: obs.KindWorkerDeath,
		Peer: hello.Worker, To: machine})
	if c.cfg.OnDeath != nil {
		c.cfg.OnDeath(machine)
	}
}

// register adds a shuttle under its machine id; a duplicate id refuses
// the newcomer (the old lease must lapse first).
func (c *Coordinator) register(machine int, s *Shuttle) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	if _, dup := c.workers[machine]; dup {
		return false
	}
	c.workers[machine] = s
	c.joined.Broadcast()
	return true
}

func (c *Coordinator) unregister(machine int, s *Shuttle) {
	c.mu.Lock()
	if c.workers[machine] == s {
		delete(c.workers, machine)
	}
	c.joined.Broadcast()
	c.mu.Unlock()
}

// Counts reports the cumulative worker joins and deaths this coordinator
// has seen — the lease-lifecycle counters behind /metrics.
func (c *Coordinator) Counts() (joins, deaths int64) {
	return c.joins.Load(), c.deaths.Load()
}

// Shuttle returns the live transport for a machine, or nil — callers bind
// executors locally when a machine has no worker behind it.
func (c *Coordinator) Shuttle(machine int) *Shuttle {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers[machine]
}

// Remote adapts Shuttle to the engine's binding API: it returns the
// machine's transport as a RemoteExecutor, nil (bind local) when the
// machine has no live worker.
func (c *Coordinator) Remote(machine int) engine.RemoteExecutor {
	if s := c.Shuttle(machine); s != nil {
		return s
	}
	return nil
}

// Workers reports the connected machine ids in ascending order.
func (c *Coordinator) Workers() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.workers))
	for id := range c.workers {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// WaitWorkers blocks until at least n workers are registered, or the
// timeout expires.
func (c *Coordinator) WaitWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		c.joined.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.workers) < n && !c.closed {
		if time.Now().After(deadline) {
			return fmt.Errorf("worker: %d of %d workers registered before timeout", len(c.workers), n)
		}
		c.joined.Wait()
	}
	if len(c.workers) < n {
		return fmt.Errorf("worker: coordinator closed with %d of %d workers", len(c.workers), n)
	}
	return nil
}

// Close fails every live shuttle and stops accepting work. The listener
// passed to Serve is owned by the caller and closed separately.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	shuttles := make([]*Shuttle, 0, len(c.workers))
	for _, s := range c.workers {
		shuttles = append(shuttles, s)
	}
	c.joined.Broadcast()
	c.mu.Unlock()
	for _, s := range shuttles {
		s.shutdown()
	}
	c.wg.Wait()
}

// Shuttle is the framed TCP transport to one worker process. It
// implements engine.RemoteExecutor: batches go out with a sequence number,
// results come back on the same connection, and the reader goroutine —
// the single place done callbacks run — matches them up.
type Shuttle struct {
	machine int
	conn    net.Conn

	writeMu sync.Mutex
	wbuf    []byte

	seq atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]func(engine.RemoteResult, error)
	failed  error
}

// ProcessBatch implements engine.RemoteExecutor: encode, register the
// completion, write the frame. A write error does not invoke done inline —
// it closes the connection and lets the reader goroutine fail all pending
// batches, preserving the single-serializer contract.
func (s *Shuttle) ProcessBatch(bolt string, items []engine.RemoteItem, done func(engine.RemoteResult, error)) error {
	seq := s.seq.Add(1)
	s.writeMu.Lock()
	frame, err := appendBatchFrame(s.wbuf[:0], seq, bolt, items)
	if err != nil {
		s.writeMu.Unlock()
		// Encode refusal (unsupported payload type): the batch never
		// left, the engine keeps the items and degrades to local.
		return err
	}
	s.wbuf = trimScratch(frame)
	// Register before writing: the result can race back before Write
	// returns.
	s.mu.Lock()
	if s.failed != nil {
		s.mu.Unlock()
		s.writeMu.Unlock()
		return errShuttleDead
	}
	s.pending[seq] = done
	s.mu.Unlock()
	_ = s.conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
	_, werr := s.conn.Write(frame)
	s.writeMu.Unlock()
	if werr != nil {
		// The batch is registered: closing the connection makes the
		// reader fail it (done runs exactly once, on the reader).
		_ = s.conn.Close()
	}
	return nil
}

// readLoop drains the connection: results resolve their pending batch,
// heartbeats renew the lease (the read deadline). On any read error every
// pending batch fails — serially, on this goroutine.
func (s *Shuttle) readLoop() {
	rd := bufio.NewReaderSize(s.conn, readBufBytes)
	var buf []byte
	var res resultMsg
	var sl slab // every emitted tuple this connection delivers is carved from it
	var err error
	for {
		_ = s.conn.SetReadDeadline(time.Now().Add(DefaultLease))
		buf, err = readFrame(rd, trimScratch(buf))
		if err != nil {
			break
		}
		if len(buf) == 0 {
			continue
		}
		switch buf[0] {
		case kindHeartbeat:
			// The successful read already renewed the lease.
		case kindResult:
			if derr := decodeResult(buf, &res, &sl); derr != nil {
				err = derr
				goto out
			}
			s.mu.Lock()
			done := s.pending[res.Seq]
			delete(s.pending, res.Seq)
			s.mu.Unlock()
			if done != nil {
				done(engine.RemoteResult{
					Emitted:        res.Emitted,
					BusyNanos:      res.BusyNanos,
					Errors:         res.Errors,
					TraceIdx:       res.Traced,
					TraceWaitNS:    res.WaitNS,
					TraceServiceNS: res.ServiceNS,
				}, nil)
			}
			// The lists were lent for the callback only; clearing the
			// headers too drops any array sl.emits outgrew mid-frame.
			clear(sl.emits)
			clear(res.Emitted)
		default:
			err = fmt.Errorf("worker: unexpected frame kind 0x%02x from worker %d", buf[0], s.machine)
			goto out
		}
	}
out:
	s.fail(err)
}

// fail marks the shuttle dead and fails every pending batch, in sequence
// order, on the calling goroutine (always the reader).
func (s *Shuttle) fail(cause error) {
	if cause == nil {
		cause = errShuttleDead
	}
	s.mu.Lock()
	if s.failed == nil {
		s.failed = cause
	}
	pend := s.pending
	s.pending = make(map[uint64]func(engine.RemoteResult, error))
	s.mu.Unlock()
	_ = s.conn.Close()
	seqs := make([]uint64, 0, len(pend))
	for seq := range pend {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		pend[seq](engine.RemoteResult{}, fmt.Errorf("worker: machine %d connection lost: %w", s.machine, cause))
	}
}

// shutdown closes the connection; the reader goroutine then fails the
// in-flight batches and the coordinator unregisters the shuttle.
func (s *Shuttle) shutdown() { _ = s.conn.Close() }
