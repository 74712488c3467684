package worker

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drs-repro/drs/internal/engine"
)

// dialTimeout bounds the TCP connect and, separately, the handshake.
const dialTimeout = 5 * time.Second

// Config parameterizes one worker daemon.
type Config struct {
	// Addr is the coordinator's worker-listen address.
	Addr string
	// Name is the daemon's self-chosen name, for diagnostics.
	Name string
	// Build constructs the hosted bolt factories from the seed the
	// coordinator hands over in the welcome, so worker-side bolt
	// instances are bit-identical to the serve process's own. The map
	// key is the bolt name; the factory is called once per task, on
	// demand.
	Build func(seed int64) (map[string]engine.BoltFactory, error)
}

// Worker is one connected worker daemon: it hosts bolt task instances and
// processes the batches the serve-side engine shuttles over.
type Worker struct {
	conn      net.Conn
	machine   int
	seed      int64
	heartbeat time.Duration
	factories map[string]engine.BoltFactory

	writeMu sync.Mutex
	wbuf    []byte

	mu      sync.Mutex
	hosted  map[string]*hostedBolt
	closed  bool
	readErr error

	batches atomic.Int64
	tuples  atomic.Int64
}

// hostedBolt is one bolt's worker-side runtime: a serialized processing
// goroutine (task instances hold state, so batches for one bolt never run
// concurrently) fed by the connection reader.
type hostedBolt struct {
	factory   engine.BoltFactory
	instances map[int]engine.Bolt
	batches   chan *batchMsg
	done      chan struct{}
}

// Dial connects to the coordinator, registers, and returns the worker
// ready to Run. The welcome's seed drives cfg.Build so the hosted bolts
// match the serve process's.
func Dial(cfg Config) (*Worker, error) {
	conn, err := net.DialTimeout("tcp", cfg.Addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(dialTimeout))
	hello, err := appendJSONFrame(nil, kindHello, helloMsg{Worker: cfg.Name, Pid: os.Getpid()})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return nil, err
	}
	payload, err := readFrame(conn, nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if len(payload) == 0 || payload[0] != kindWelcome {
		conn.Close()
		return nil, errors.New("worker: registration refused")
	}
	var welcome welcomeMsg
	if err := decodeJSONBody(payload, &welcome); err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	factories, err := cfg.Build(welcome.Seed)
	if err != nil {
		conn.Close()
		return nil, err
	}
	hb := time.Duration(welcome.HeartbeatMS) * time.Millisecond
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	return &Worker{
		conn:      conn,
		machine:   welcome.Machine,
		seed:      welcome.Seed,
		heartbeat: hb,
		factories: factories,
		hosted:    make(map[string]*hostedBolt),
	}, nil
}

// Machine reports the pool machine id the coordinator leased to this
// worker.
func (w *Worker) Machine() int { return w.machine }

// Counts reports how many batches and tuples this worker has processed
// across all hosted bolts since it connected.
func (w *Worker) Counts() (batches, tuples int64) {
	return w.batches.Load(), w.tuples.Load()
}

// HostedBolts reports how many distinct bolts currently have a live
// worker-side runner.
func (w *Worker) HostedBolts() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.hosted)
}

// Seed reports the topology seed from the welcome.
func (w *Worker) Seed() int64 { return w.seed }

// Run drives the worker until the connection dies or Close is called:
// a heartbeat goroutine renews the lease, the read loop dispatches batches
// to per-bolt processing goroutines, and results flow back on the same
// connection. Returns nil on orderly Close, the connection error
// otherwise.
func (w *Worker) Run() error {
	stop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(w.heartbeat)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := w.writeHeartbeat(); err != nil {
					_ = w.conn.Close() // surface the failure to the read loop
					return
				}
			}
		}
	}()
	err := w.readLoop()
	close(stop)
	hbWG.Wait()
	w.mu.Lock()
	closed := w.closed
	hosted := make([]*hostedBolt, 0, len(w.hosted))
	for _, h := range w.hosted {
		hosted = append(hosted, h)
	}
	w.mu.Unlock()
	for _, h := range hosted {
		close(h.batches)
		<-h.done
	}
	if closed {
		return nil
	}
	return err
}

// Close shuts the worker down; Run returns nil.
func (w *Worker) Close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	_ = w.conn.Close()
}

// readLoop decodes inbound frames and routes batches to their bolt's
// processing goroutine.
func (w *Worker) readLoop() error {
	rd := bufio.NewReaderSize(w.conn, readBufBytes)
	var buf []byte
	var sl slab // every tuple this connection delivers is carved from it
	for {
		var err error
		buf, err = readFrame(rd, trimScratch(buf))
		if err != nil {
			return err
		}
		if len(buf) == 0 {
			continue
		}
		switch buf[0] {
		case kindBatch:
			m := getBatchMsg()
			if err := decodeBatch(buf, m, &sl); err != nil {
				putBatchMsg(m)
				return fmt.Errorf("worker: bad batch frame: %w", err)
			}
			m.arrived = time.Now()
			h, err := w.boltRunner(m.Bolt)
			if err != nil {
				putBatchMsg(m)
				return err
			}
			h.batches <- m
		case kindHeartbeat:
			// Tolerated in either direction.
		default:
			return fmt.Errorf("worker: unexpected frame kind 0x%02x", buf[0])
		}
	}
}

// boltRunner returns (starting on first use) the serialized processing
// goroutine of one hosted bolt. The steady-state lookup converts no string.
func (w *Worker) boltRunner(bolt []byte) (*hostedBolt, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if h, ok := w.hosted[string(bolt)]; ok {
		return h, nil
	}
	name := string(bolt)
	factory, ok := w.factories[name]
	if !ok {
		return nil, fmt.Errorf("worker: batch for unhosted bolt %q", name)
	}
	h := &hostedBolt{
		factory:   factory,
		instances: make(map[int]engine.Bolt),
		batches:   make(chan *batchMsg, RemoteQueueDepth),
		done:      make(chan struct{}),
	}
	w.hosted[name] = h
	go w.runBolt(h)
	return h, nil
}

// RemoteQueueDepth is the per-bolt batch channel depth on the worker. The
// serve side's in-flight window (engine.RemoteInflight per executor) is
// the real bound; this only needs to cover several executors sharing one
// bolt runner.
const RemoteQueueDepth = 64

// runBolt processes one bolt's batches in order: build the task instance
// on first use, run Process with a capturing emitter, time each tuple
// (the probe aggregates travel home with the result), and write the
// result frame.
func (w *Worker) runBolt(h *hostedBolt) {
	defer close(h.done)
	var res resultMsg
	// emits is the batch's flat emission scratch: res.Emitted lends out
	// sub-slices of it, which writeResult encodes before the next batch.
	var emits []engine.Values
	emit := engine.Emit(func(v engine.Values) { emits = append(emits, v) })
	for m := range h.batches {
		w.batches.Add(1)
		w.tuples.Add(int64(len(m.Items)))
		res.Seq = m.Seq
		res.Emitted = res.Emitted[:0]
		res.Served = int64(len(m.Items))
		res.Sampled = int64(len(m.Items))
		res.BusyNanos, res.Errors = 0, 0
		res.Traced = res.Traced[:0]
		res.WaitNS = res.WaitNS[:0]
		res.ServiceNS = res.ServiceNS[:0]
		for i, it := range m.Items {
			inst, ok := h.instances[it.Task]
			if !ok {
				inst = h.factory(it.Task)
				h.instances[it.Task] = inst
			}
			first := len(emits)
			start := time.Now()
			err := inst.Process(engine.Tuple{Values: it.Values}, emit)
			d := time.Since(start)
			res.BusyNanos += int64(d)
			if err != nil {
				res.Errors++
			}
			if it.Traced {
				// Wait and service on the worker's own clock: durations
				// only, so serve-side stitching is clock-skew-free.
				res.Traced = append(res.Traced, uint32(i))
				res.WaitNS = append(res.WaitNS, int64(start.Sub(m.arrived)))
				res.ServiceNS = append(res.ServiceNS, int64(d))
			}
			res.Emitted = append(res.Emitted, emits[first:len(emits):len(emits)])
		}
		putBatchMsg(m)
		err := w.writeResult(&res)
		// An idle runner pins no delivered tuple: not through the scratch,
		// nor through a lent header into an array emits outgrew mid-batch.
		clear(emits)
		clear(res.Emitted)
		emits = emits[:0]
		if err != nil {
			_ = w.conn.Close() // the read loop surfaces the error
			for m := range h.batches {
				putBatchMsg(m)
			}
			return
		}
	}
}

// writeResult frames and writes one result under the shared write lock.
func (w *Worker) writeResult(res *resultMsg) error {
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	frame, err := appendResultFrame(w.wbuf[:0], res)
	if err != nil {
		return err
	}
	w.wbuf = trimScratch(frame)
	_ = w.conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
	_, err = w.conn.Write(frame)
	return err
}

// writeHeartbeat frames and writes one heartbeat under the shared write
// lock.
func (w *Worker) writeHeartbeat() error {
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	var hb [9]byte
	frame, err := appendHeartbeatFrame(hb[:0])
	if err != nil {
		return err
	}
	_ = w.conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
	_, err = w.conn.Write(frame)
	return err
}

// batchMsg pooling: the reader decodes into pooled messages, the bolt
// runners return them after processing.
var batchPool = sync.Pool{New: func() any { return new(batchMsg) }}

func getBatchMsg() *batchMsg { return batchPool.Get().(*batchMsg) }

func putBatchMsg(m *batchMsg) {
	clear(m.Items)
	m.Items = m.Items[:0]
	batchPool.Put(m)
}
