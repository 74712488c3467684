// Package node is the one live assembly path: every caller that runs the
// DRS stack against the wall clock — `drsctl serve` and `schedule`, the
// trace experiment — builds it here instead of wiring the packages by
// hand.
//
// It has two layers. A Tenant is one supervised live topology: an engine
// run, a controller and the supervisor over a caller-supplied pool. A
// Node is a Tenant behind the front door: WAL recovery and checkpoint
// resume, the admission gate, a NetworkSpout at the entry operator, the
// worker tier, replay-before-listen, the HTTP/TCP listeners and
// /metrics. What the package owns is a policy, not a mechanism: the boot
// and drain ORDER that durability and zero admitted loss depend on (see
// Start and Drain), stated once instead of by every caller.
//
// The package also owns the synthetic live workload (workload.go): the
// one Poisson spout and the one exponential-service bolt factory, so the
// serve process and its `drsctl worker` processes build bit-identical
// bolt instances from (topology file, seed).
package node

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
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
	"github.com/drs-repro/drs/internal/obs"
	"github.com/drs-repro/drs/internal/wal"
	"github.com/drs-repro/drs/internal/worker"
)

// One value in use across both callers, so constants, not options.
const (
	// tenantName labels the node's gate, lease, loop and histograms.
	tenantName = "serve"
	// spoutName is the NetworkSpout feeding the entry operator.
	spoutName = "ingest"
	// spoutMaxBatch is the most payloads one ring pop injects.
	spoutMaxBatch = 256
	// drainTimeout bounds Drain's wait for admitted records to finish: a
	// wedged engine must not make shutdown hang. What is still in flight
	// then strands (Report.Stranded).
	drainTimeout = 10 * time.Second
	// workerWait bounds the wait for MinWorkers registrations.
	workerWait = 60 * time.Second
)

// Config describes a node. Every field is either a deployment setting or
// a value its callers — `drsctl serve`, the trace experiment and this
// package's tests — set differently; everything with one value in use is
// a constant above or a default of the package it configures (the
// cooldown is loop's 4·Interval, the ring capacity ingest's 4096). What
// the benchmark's SUT still needs before it can assemble through Start is
// only its decorator seams (source, target, stepper, listeners); each is
// addable as one more field here and none exists until then.
type Config struct {
	// Build declares the bolts and their edges (required); the node adds
	// the ingest spout in front of Entry.
	Build func(*engine.TopologyBuilder)
	// Entry is the bolt ingested records enter at (required).
	Entry string
	// Tmax is the latency target in seconds the gate and the supervisor
	// defend (required).
	Tmax float64
	// Interval is the measurement cadence Tm — also the gate's replan,
	// the placement and the checkpoint cadence (required).
	Interval time.Duration
	// SlotsPerMachine and MaxMachines size the pool the node leases from.
	SlotsPerMachine, MaxMachines int
	// Costs are the pool's modelled transition pauses.
	Costs cluster.CostModel
	// Clients carries the per-client shedding weights and token buckets.
	Clients ingest.ListenerConfig
	// HTTPAddr and TCPAddr are the ingest listen addresses ("" disables
	// that listener); they open last, so an early client is refused rather
	// than parked in an accept queue.
	HTTPAddr, TCPAddr string
	// WorkerListener, when set, is the worker registration endpoint, bound
	// by the caller, who therefore knows its address. The node owns it from
	// Start on and closes it at shutdown, a failed Start's included.
	WorkerListener net.Listener
	// MinWorkers keeps the ingest listeners shut until that many workers
	// have registered.
	MinWorkers int
	// Seed is handed to every worker, so its bolt instances match the
	// ones Build declares.
	Seed int64
	// WALDir, when set, makes admission durable: ACK after append,
	// crash-recovery replay on boot, control checkpoints beside the log.
	WALDir string
	// DecisionSink, when set, enables the decision log, which keeps every
	// decision. TraceSink, when set, enables the tracer at TraceSample
	// permille.
	DecisionSink, TraceSink obs.Sink
	TraceSample             int
	// OnTrace, when set, receives every completed sampled trace (on the
	// tracer's drainer goroutine) and enables the tracer without a sink.
	OnTrace func(obs.Trace)
	// FixedAlloc, when set, is the executor count per bolt (clipped to
	// [1, the bolt's tasks]) for the node's whole life: the supervisor is
	// built but never started, and with no snapshot to plan from the gate
	// admits up to ring backpressure.
	FixedAlloc map[string]int
	// Pprof mounts net/http/pprof on the HTTP listener.
	Pprof bool
	// Logger receives lifecycle notices and the loop's events; nil
	// discards them.
	Logger *slog.Logger
}

// Node is a running front door with a supervised topology behind it.
type Node struct {
	cfg     Config
	log     *slog.Logger
	walLog  *wal.Log
	ckpt    wal.Checkpoint // the previous life's control state; zero on a cold start
	dlog    *obs.Log
	tracer  *obs.Tracer
	metrics *metrics
	gate    *ingest.Gate
	pool    *cluster.Pool
	lease   *cluster.Tenant
	tenant  *Tenant
	coord   *worker.Coordinator
	httpSrv *http.Server
	tcpL    net.Listener

	httpAddr, tcpAddr string // as bound

	nudge                          chan struct{} // wakes placement: a join, a death, a Rebalance
	stopPlacement, stopCheckpoints func()
	serving                        sync.WaitGroup // listener goroutines

	once   sync.Once // the one shutdown
	report Report
}

// Status is one reading of a node: the gate's books and plan, the lease,
// the pool, the allocation in force and the supervisor's last snapshot.
type Status struct {
	// HTTPAddr and TCPAddr are the bound ingest addresses ("" when that
	// listener is disabled).
	HTTPAddr, TCPAddr string
	// Gate holds the admission counters and the current shed plan.
	Gate ingest.GateStats
	// Granted is the slot count the lease holds; Machines the pool size.
	Granted, Machines int
	// Alloc is the executor count per bolt; Remote how many of them are
	// bound to a worker process.
	Alloc, Remote map[string]int
	// Snapshot is the supervisor's latest measurement; Measured is false
	// until the first one exists. From an applied action until the next
	// measured round (the cooldown and the measurer's re-warm) its Alloc and
	// Kmax are the ones that action put in force and its MeasuredSojourn is
	// zero — nothing has measured that configuration yet
	// (loop.Supervisor.LastSnapshot).
	Snapshot core.Snapshot
	Measured bool
}

// Report is Drain's closing account, read after the engine stopped.
type Report struct {
	// Status is the final reading.
	Status
	// Completions and Sojourn are the engine's root-tuple books: the
	// roots completed and their summed sojourn. Stranded counts the roots
	// started and not completed: what the drain's deadline cut off. A
	// durable node leaves them unacked in the WAL for the next boot.
	Completions, Stranded int64
	Sojourn               time.Duration
	// TraceDropped and Traces are the tracer's ring-overflow count and
	// the assembler's closing balance (zero without a tracer).
	TraceDropped uint64
	Traces       obs.AssembleStats
	// WALTail and WALSegments describe the log (zero when not durable).
	WALTail     uint64
	WALSegments int
	// ExecutorFailures and Replays count remote bindings whose transport
	// failed and the tuples replayed off them.
	ExecutorFailures, Replays int64
	// Rounds and History are the supervisor's closing account.
	Rounds  int64
	History []loop.Event
}

// Start boots a node and returns once its listeners accept. The order is
// the policy this package exists for:
//
//  1. recover the WAL and the control checkpoint before anything is
//     built — the checkpoint seeds the allocation, the lease size and
//     the supervisor's hysteresis;
//  2. gate, then the engine behind it, then the control loop — the gate
//     must exist for the spout to drain, the run for the loop to measure;
//  3. the worker tier: wait for MinWorkers, then one placement pass —
//     executors are placed before traffic, not under it;
//  4. replay the recovered unacked records BEFORE any listener opens, so
//     replayed and fresh traffic never interleave and every re-injected
//     record is already in the log;
//  5. checkpoints and /metrics, which read the assembled components;
//  6. the listeners, last.
//
// A failed Start releases everything it had opened, and the worker
// listener and sinks it was handed.
func Start(cfg Config) (*Node, error) {
	n := &Node{cfg: cfg, log: cfg.Logger, nudge: make(chan struct{}, 1)}
	if n.log == nil {
		n.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if err := n.boot(); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// notice logs a lifecycle event at the level the default logger shows.
func (n *Node) notice(msg string, args ...any) {
	n.log.Log(context.Background(), LevelNotice, msg, args...)
}

func (n *Node) boot() error {
	cfg := n.cfg
	topo, err := buildTopology(func(b *engine.TopologyBuilder) {
		cfg.Build(b)
		b.Spout(spoutName, 1, func(int) engine.Spout {
			return &engine.NetworkSpout{Source: n.gate.Source(), MaxBatch: spoutMaxBatch}
		})
		b.Shuffle(spoutName, cfg.Entry)
	})
	if err != nil {
		return err
	}
	bolts := topo.BoltNames()

	var resume *loop.PersistedState
	if cfg.WALDir != "" {
		var rec wal.Recovered
		if n.walLog, rec, err = wal.Open(wal.Options{Dir: cfg.WALDir}); err != nil {
			return fmt.Errorf("wal recovery: %w", err)
		}
		n.notice("wal recovered", "segments", rec.Segments, "records", rec.Records,
			"tail_seq", rec.TailSeq, "watermark", rec.Watermark, "torn_tail_bytes", rec.TruncatedBytes)
		var ok bool
		if n.ckpt, ok, err = wal.LoadCheckpoint(cfg.WALDir); err != nil {
			return err
		}
		if ok {
			n.notice("checkpoint resumed", "rounds", n.ckpt.Rounds, "alloc", n.ckpt.Alloc)
			resume = &loop.PersistedState{
				Rounds:            n.ckpt.Rounds,
				CooldownRemaining: time.Duration(n.ckpt.CooldownMS) * time.Millisecond,
			}
		}
	}

	n.metrics = newMetrics(tenantName)
	if cfg.DecisionSink != nil {
		n.dlog = obs.NewLog(obs.Config{Sink: cfg.DecisionSink})
	}
	if cfg.TraceSink != nil || cfg.OnTrace != nil {
		n.tracer = obs.NewTracer(obs.TracerConfig{
			SamplePermille: cfg.TraceSample,
			Sink:           cfg.TraceSink,
			Assembler:      n.metrics.traceAssembler(bolts, cfg.OnTrace),
		})
	}

	maxSlots := cfg.SlotsPerMachine * cfg.MaxMachines
	n.gate = ingest.NewGate(ingest.GateConfig{
		Name:        tenantName,
		Tmax:        cfg.Tmax,
		MaxSlots:    maxSlots,
		ReplanEvery: cfg.Interval,
		DecisionLog: n.dlog,
		Tracer:      n.tracer,
	})
	if n.walLog != nil {
		if err := n.gate.AttachWAL(n.walLog); err != nil {
			return err
		}
	}

	// A single tenant leased through the Scheduler, so a beyond-cap scale
	// request grants partially instead of being refused outright.
	if n.pool, err = cluster.NewPool(cluster.PoolConfig{
		SlotsPerMachine: cfg.SlotsPerMachine, MaxMachines: cfg.MaxMachines, Costs: cfg.Costs,
	}, 1); err != nil {
		return err
	}
	sched, err := cluster.NewScheduler(cluster.SchedulerConfig{Pool: n.pool, DecisionLog: n.dlog})
	if err != nil {
		return err
	}
	alloc, slots := n.initialAllocation(bolts, topo.Tasks(), maxSlots)
	if n.lease, err = sched.Register(cluster.TenantConfig{
		Name: tenantName, MinSlots: len(bolts), InitialSlots: min(slots, maxSlots),
	}); err != nil {
		return err
	}
	if n.tenant, err = newTenant(topo, alloc, TenantConfig{
		Name:       tenantName,
		Controller: core.ControllerConfig{Mode: core.ModeMinResource, Tmax: cfg.Tmax},
		Pool:       n.lease,
		Interval:   cfg.Interval,
		Logger:     cfg.Logger,
	}, front{
		gate: n.gate, dlog: n.dlog, tracer: n.tracer, resume: resume,
		sojourn: n.metrics.sojourn, shedFrac: n.metrics.shedFrac, rebalanced: n.replace,
	}); err != nil {
		return err
	}
	if err := n.gate.Start(); err != nil {
		return err
	}
	if cfg.FixedAlloc == nil {
		if err := n.tenant.Start(); err != nil {
			return err
		}
	}

	if cfg.WorkerListener != nil {
		if err := n.bootWorkers(); err != nil {
			return err
		}
	}

	if n.walLog != nil {
		replayed, err := n.gate.Replay()
		if err != nil {
			return fmt.Errorf("wal replay: %w", err)
		}
		n.notice("wal replay through the spout", "unacked", replayed)
		n.stopCheckpoints = every(cfg.Interval, nil, n.saveCheckpoint)
	}

	// Every metric family reads live components, so registration waits
	// until the whole node is assembled.
	n.metrics.register(n)
	return n.listen()
}

// initialAllocation is one executor per bolt on a cold start, or the
// fixed (else the checkpointed) allocation, each bolt's count clipped to
// [1, its tasks], when it still fits the cap; a stale oversized
// checkpoint falls back to the cold start.
func (n *Node) initialAllocation(bolts []string, tasks map[string]int, maxSlots int) (alloc map[string]int, slots int) {
	want := n.ckpt.Alloc
	if n.cfg.FixedAlloc != nil {
		want = n.cfg.FixedAlloc
	}
	alloc = make(map[string]int, len(bolts))
	for _, name := range bolts {
		alloc[name] = max(1, min(want[name], tasks[name]))
		slots += alloc[name]
	}
	if slots <= maxSlots {
		return alloc, slots
	}
	for _, name := range bolts {
		alloc[name] = 1
	}
	return alloc, len(bolts)
}

// replace wakes the placement goroutine without blocking: one pending
// nudge covers any number of events. Without a worker tier nothing reads
// it.
func (n *Node) replace() {
	select {
	case n.nudge <- struct{}{}:
	default:
	}
}

// bootWorkers opens the worker tier: remote processes register here,
// lease a pool machine, and host executors over the framed shuttle. A
// process's death fails its pool machine; a replacement process re-backs
// it.
func (n *Node) bootWorkers() error {
	var synthetic atomic.Int64 // ids past the pool when it is full
	n.coord = worker.NewCoordinator(worker.CoordinatorConfig{
		Seed:        n.cfg.Seed,
		DecisionLog: n.dlog,
		Bind: func(name string, pid int) (int, error) {
			lessee := fmt.Sprintf("%s/%d", name, pid)
			for _, m := range n.pool.MachineList() {
				if err := n.pool.BindWorker(m.ID, lessee); err != nil {
					continue // already backed; try the next machine
				}
				if m.Failed {
					// A replacement process re-backs the crashed machine:
					// capacity returns with it.
					_ = n.pool.Recover(m.ID)
				}
				return m.ID, nil
			}
			// Every pool machine is backed (or the pool is small right
			// now): the worker still joins, on an id beyond the pool.
			return int(1000 + synthetic.Add(1)), nil
		},
		OnJoin: func(machine int) {
			n.notice("worker joined", "machine", machine)
			n.replace()
		},
		OnDeath: func(machine int) {
			// A dead worker is a dead machine; ignore the error for
			// synthetic ids and machines the pool already failed. Fail
			// comes before the unbind: a replacement that binds between
			// the two takes another machine, one that binds later finds
			// this one failed and recovers it, and none is failed under.
			_ = n.pool.Fail(machine)
			n.pool.UnbindWorker(machine)
			n.notice("worker died, executors heal local", "machine", machine)
			n.replace()
		},
	})
	l := n.cfg.WorkerListener
	n.serve(func() error { return n.coord.Serve(l) }, "worker registration")
	n.notice("worker registration open", "addr", l.Addr().String())
	if n.cfg.MinWorkers > 0 {
		if err := n.coord.WaitWorkers(n.cfg.MinWorkers, workerWait); err != nil {
			return err
		}
	}
	// Placement: the engine's current allocation spread over the live
	// workers, SlotsPerMachine executors each, remainder local. One pass
	// runs here, so the replay and the first request already find the
	// executors remote; then one on every join, death and supervised
	// Rebalance (which rebuilds the changed bolts' executors local), and
	// one every control interval, the reconcile for what no event covers:
	// a transport self-heal. Idempotent bindings make the steady-state
	// pass a no-op.
	place := func() {
		machines := n.coord.Workers()
		placement := make(map[int]int, len(machines))
		for _, m := range machines {
			placement[m] = n.cfg.SlotsPerMachine
		}
		worker.ApplyPlacement(n.tenant.Run, n.tenant.Run.Allocation(), placement, 0, n.coord.Remote)
	}
	place()
	n.stopPlacement = every(n.cfg.Interval, n.nudge, place)
	return nil
}

// every runs fn on each tick of interval and on each nudge, on its own
// goroutine; the returned stop waits for it to exit.
func every(interval time.Duration, nudge <-chan struct{}, fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			case <-nudge:
			}
			fn()
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// serve runs one listener loop, logging a death that is not a shutdown:
// a front door must not fall silent.
func (n *Node) serve(loop func() error, what string) {
	n.serving.Add(1)
	go func() {
		defer n.serving.Done()
		if err := loop(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			n.log.Error(what+" listener died", "err", err)
		}
	}()
}

// listen opens the ingest listeners — the last boot step.
func (n *Node) listen() error {
	if n.cfg.HTTPAddr != "" {
		l, err := net.Listen("tcp", n.cfg.HTTPAddr)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("/", ingest.Handler(n.gate, n.cfg.Clients))
		mux.Handle("/metrics", n.metrics.reg.Handler())
		n.httpAddr, n.httpSrv = l.Addr().String(), NewHTTPServer(mux, n.cfg.Pprof)
		n.serve(func() error { return n.httpSrv.Serve(l) }, "http ingest")
		n.notice("http ingest open", "url", "http://"+n.httpAddr+"/ingest",
			"metrics", "/metrics", "pprof", n.cfg.Pprof)
	}
	if n.cfg.TCPAddr != "" {
		l, err := net.Listen("tcp", n.cfg.TCPAddr)
		if err != nil {
			return err
		}
		n.tcpAddr, n.tcpL = l.Addr().String(), l
		n.serve(func() error { return ingest.ServeTCP(l, n.gate, n.cfg.Clients) }, "tcp ingest")
		n.notice("tcp ingest open", "addr", n.tcpAddr)
	}
	n.notice("serving behind the admission gate", "tmax_ms", n.cfg.Tmax*1e3, "entry", n.cfg.Entry,
		"cap_slots", n.cfg.SlotsPerMachine*n.cfg.MaxMachines)
	return nil
}

// Status reads the node's live state.
func (n *Node) Status() Status {
	st := Status{
		HTTPAddr: n.httpAddr,
		TCPAddr:  n.tcpAddr,
		Gate:     n.gate.Stats(),
		Granted:  n.lease.Granted(),
		Machines: n.pool.Machines(),
		Alloc:    n.tenant.Run.Allocation(),
		Remote:   make(map[string]int),
	}
	for _, b := range n.tenant.Run.BoltNames() {
		st.Remote[b], _ = n.tenant.Run.RemoteBound(b)
	}
	st.Snapshot, st.Measured = n.tenant.Sup.LastSnapshot()
	return st
}

// saveCheckpoint persists the control plane beside the segments:
// allocation, round count and hysteresis — what the next boot resumes.
func (n *Node) saveCheckpoint() {
	ps := n.tenant.Sup.PersistedState()
	err := wal.SaveCheckpoint(n.cfg.WALDir, wal.Checkpoint{
		Alloc:      n.tenant.Run.Allocation(),
		Rounds:     ps.Rounds,
		CooldownMS: ps.CooldownRemaining.Milliseconds(),
	})
	if err != nil {
		n.log.Warn("checkpoint not saved", "err", err)
	}
}

// Drain shuts the node down in the one order that loses no admitted
// record, and returns the closing account. Each step has a reason:
//
//  1. listeners close — nothing new is offered;
//  2. the gate closes — the ring refuses pushes but still hands the
//     ingest spout what it holds;
//  3. the engine stops (engine.Run.StopBy): the spout injects the ring's
//     last records and returns, then one drain, woken by the last
//     completion and bounded by drainTimeout, through which the supervisor
//     and placement still act — what is still in flight at the deadline
//     strands, counted in Report.Stranded. It comes before the worker tier
//     goes: remote executors need their transport to finish;
//  4. the supervisor stops, then placement, then the workers go;
//  5. the checkpoint ticker stops, so the final checkpoint is the last;
//  6. the watermark syncs and the final checkpoint is written, so the
//     next boot replays only what truly never finished — stranded
//     records included.
//
// Drain is idempotent: later calls return the first call's report.
func (n *Node) Drain() Report {
	n.shutdown(time.Now().Add(drainTimeout))
	return n.report
}

// Close releases whatever the node holds — listeners, goroutines, the
// engine, the log — in Drain's order but without waiting for admitted
// records or writing the final checkpoint: the cleanup of a failed Start,
// and a crash as far as the WAL can tell. A no-op after Drain.
func (n *Node) Close() { n.shutdown(time.Time{}) }

// shutdown drains by deadline, or — at the zero deadline, Close — waits
// for nothing.
func (n *Node) shutdown(deadline time.Time) {
	n.once.Do(func() {
		drain := !deadline.IsZero()
		if n.httpSrv != nil {
			_ = n.httpSrv.Close()
		}
		if n.tcpL != nil {
			_ = n.tcpL.Close()
		}
		if n.gate != nil {
			n.gate.Close()
		}
		if n.tenant != nil {
			if err := n.tenant.Run.StopBy(deadline); err != nil && drain {
				n.log.Warn("engine stopped with records in flight", "err", err)
			}
			n.tenant.Sup.Stop()
		}
		if n.stopPlacement != nil {
			n.stopPlacement()
		}
		if n.cfg.WorkerListener != nil {
			_ = n.cfg.WorkerListener.Close()
		}
		if n.coord != nil {
			n.coord.Close()
		}
		if n.stopCheckpoints != nil {
			n.stopCheckpoints()
		}
		if drain {
			n.closeBooks()
		}
		n.serving.Wait()
		n.closeObs(n.tracer != nil, n.tracer, n.cfg.TraceSink, "tracer")
		if drain {
			// Read after Close: its final sweep folds the last traces.
			n.report.TraceDropped, n.report.Traces = n.tracer.Stats().Dropped, n.tracer.Assembler().Stats()
		}
		n.closeObs(n.dlog != nil, n.dlog, n.cfg.DecisionSink, "decision log")
		if n.walLog != nil {
			_ = n.walLog.Close()
		}
	})
}

// closeBooks makes the drained state durable and fills the report.
func (n *Node) closeBooks() {
	if n.walLog != nil {
		if err := n.gate.SyncWatermark(); err != nil {
			n.log.Warn("final watermark sync failed", "err", err)
		}
		n.saveCheckpoint()
		n.report.WALTail, n.report.WALSegments = n.walLog.TailSeq(), n.walLog.Segments()
	}
	run, sup := n.tenant.Run, n.tenant.Sup
	n.report.Status = n.Status()
	started, completed, sojourn := run.RootTotals()
	n.report.Completions, n.report.Stranded, n.report.Sojourn = completed, started-completed, time.Duration(sojourn)
	n.report.ExecutorFailures, n.report.Replays = run.ExecutorFailures(), run.Replayed()
	n.report.Rounds, n.report.History = sup.Rounds(), sup.History()
}

// closeObs closes a decision-log or tracer pipeline — or, when boot
// failed before the pipeline was built, the bare sink the caller handed
// over: the sinks are the node's from Start on.
func (n *Node) closeObs(built bool, pipeline, sink interface{ Close() error }, what string) {
	if !built {
		pipeline = sink
	}
	if pipeline == nil {
		return
	}
	if err := pipeline.Close(); err != nil {
		n.log.Warn(what+" close failed", "err", err)
	}
}

// WriteHistory renders the supervisor's closing account.
func (r Report) WriteHistory(w io.Writer) { writeHistory(w, "", r.Rounds, r.History) }
