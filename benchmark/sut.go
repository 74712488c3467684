package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/ingest"
	"github.com/drs-repro/drs/internal/loop"
	"github.com/drs-repro/drs/internal/obs"
	"github.com/drs-repro/drs/internal/wal"
	"github.com/drs-repro/drs/internal/worker"
)

// The SUT is this binary re-exec'd with -role sut: one child process that
// assembles the real stack through the packages' public constructors,
// with only the bolts (and, on the traced pass, the decorators) supplied
// by the benchmark. It speaks JSON lines on stdin/stdout: the config
// comes in first, "ready" goes out once the listeners accept, then
// "snap" and "stop" commands are answered in order.

// sutConfig is the first line the parent writes to the child.
type sutConfig struct {
	Workload workload `json:"workload"`
	Seed     int64    `json:"seed"`
	// Traced installs the decorators and raises the tracer to 1000 ‰.
	Traced bool `json:"traced"`
	// Dir is the run's scratch directory inside the checkout.
	Dir string `json:"dir"`
	// WALDir is the pre-seeded log directory (durable workload).
	WALDir string `json:"wal_dir"`
	// ExpectSamples sizes the latency sample and stamp storage.
	ExpectSamples int `json:"expect_samples"`
}

// sutReady is the child's first line.
type sutReady struct {
	HTTPAddr  string  `json:"http_addr"`
	TCPAddr   string  `json:"tcp_addr"`
	RecoverS  float64 `json:"recover_s"`
	ReplayS   float64 `json:"replay_s"`
	Recovered int     `json:"recovered"`
}

// sutSnap is a cumulative reading; the parent differences two of them.
type sutSnap struct {
	AtNS        int64   `json:"at_ns"`
	CPUUserNS   int64   `json:"cpu_user_ns"`
	CPUSysNS    int64   `json:"cpu_sys_ns"`
	MaxRSSKB    int64   `json:"max_rss_kb"`
	Mallocs     uint64  `json:"mallocs"`
	GCCycles    uint32  `json:"gc_cycles"`
	GCPauseNS   uint64  `json:"gc_pause_ns"`
	Goroutines  int     `json:"goroutines"`
	SlotSeconds float64 `json:"slot_seconds"` // ∫ slots held dt since boot
}

// allocChange is one change of the allocation in force.
type allocChange struct {
	AtNS  int64          `json:"at_ns"`
	Alloc map[string]int `json:"alloc"`
	Total int            `json:"total"`
}

// sutReport is the child's answer to "stop", after the drain.
type sutReport struct {
	Sink             sinkReport         `json:"sink"`
	Gate             ingest.GateStats   `json:"gate"`
	RootsStarted     int64              `json:"roots_started"`
	RootsCompleted   int64              `json:"roots_completed"`
	MeanSojournMS    float64            `json:"mean_sojourn_ms"`
	BoltErrors       int64              `json:"bolt_errors"`
	SpoutErrors      int64              `json:"spout_errors"`
	ExecFailures     int64              `json:"exec_failures"`
	Replayed         int64              `json:"replayed"`
	RemoteBound      map[string]int     `json:"remote_bound"`
	Alloc            map[string]int     `json:"alloc"`
	AllocChanges     []allocChange      `json:"alloc_changes"`
	Granted          int                `json:"granted"`
	SlotCap          int                `json:"slot_cap"`
	MachinesMax      int                `json:"machines_max"`
	WALTail          uint64             `json:"wal_tail"`
	WALWatermark     uint64             `json:"wal_watermark"`
	WALSegments      int                `json:"wal_segments"`
	WALBytes         int64              `json:"wal_bytes"`
	WorkerJoins      int64              `json:"worker_joins"`
	WorkerDeaths     int64              `json:"worker_deaths"`
	WorkerBatches    int64              `json:"worker_batches"`
	WorkerTuples     int64              `json:"worker_tuples"`
	Rounds           int64              `json:"rounds"`
	Decisions        map[string]int     `json:"decisions"`
	RoundNotes       []roundNote        `json:"round_notes"`
	GoroutinesMax    int                `json:"goroutines_max"`
	Layers           map[string]float64 `json:"layers"`      // traced pass
	LayerTable       []layerRow         `json:"layer_table"` // traced pass
	SpanFile         string             `json:"span_file"`
	DrainIncompleteN int64              `json:"drain_incomplete_n"`
	Final            sutSnap            `json:"final"`
}

// mapCounter maps the first word of a file shared with the generator.
func mapCounter(path string, create bool) (*atomic.Uint64, func(), error) {
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o600)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if create {
		if err := f.Truncate(4096); err != nil {
			return nil, nil, err
		}
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, 4096, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	// A fresh mapping is page aligned, so word 0 is safe for 64-bit atomics.
	return (*atomic.Uint64)(unsafe.Pointer(&mem[0])), func() { _ = syscall.Munmap(mem) }, nil
}

// sut is the assembled stack plus everything the report reads.
type sut struct {
	cfg    sutConfig
	w      workload
	rec    *recorder
	table  *stampTable
	gate   *ingest.Gate
	run    *engine.Run
	walLog *wal.Log
	dlog   *obs.Log
	tracer *obs.Tracer
	sup    *loop.Supervisor
	lease  *cluster.Tenant
	pool   *cluster.Pool
	coord  *worker.Coordinator
	wkrs   []*worker.Worker

	httpSrv *http.Server
	tcpL    net.Listener
	workerL net.Listener
	ready   sutReady

	// traced-pass probes
	httpHandle, tcpHandle, shuttleRTT, stepNS, resizeNS collector
	source                                              *sourceProbe
	remotes                                             map[int]*timedRemote
	wire                                                *countingListener
	target                                              *timedTarget
	stepper                                             *timedStepper
	traces                                              traceFold
	traceSink, dlogSink                                 countSink

	// sampler state
	sampleStop  chan struct{}
	sampleDone  chan struct{}
	mu          sync.Mutex
	slotSeconds float64
	changes     []allocChange
	gorMax      int
	machinesMax int
}

// traceFold folds the shipping tracer's completed traces (traced pass).
type traceFold struct {
	mu                                   sync.Mutex
	n                                    int64
	gate, walNS, queue, service, shuttle float64
	telescopeErr                         int64
	walSamples                           []float64
}

func (f *traceFold) onComplete(tr obs.Trace) {
	f.mu.Lock()
	f.n++
	f.gate += float64(tr.GateNS)
	f.walNS += float64(tr.WALNS)
	f.queue += float64(tr.QueueNS)
	f.service += float64(tr.ServiceNS)
	f.shuttle += float64(tr.ShuttleNS)
	if d := tr.QueueNS + tr.ServiceNS + tr.ShuttleNS - tr.SojournNS; d < 0 {
		f.telescopeErr -= d
	} else {
		f.telescopeErr += d
	}
	if tr.WALNS > 0 {
		f.walSamples = append(f.walSamples, float64(tr.WALNS))
	}
	f.mu.Unlock()
}

// runSUT is the child's main.
func runSUT() error {
	in := bufio.NewReaderSize(os.Stdin, 1<<16)
	out := json.NewEncoder(os.Stdout)
	line, err := in.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("sut: reading config: %w", err)
	}
	var cfg sutConfig
	if err := json.Unmarshal(line, &cfg); err != nil {
		return fmt.Errorf("sut: config: %w", err)
	}
	s := &sut{cfg: cfg, w: cfg.Workload}
	if err := s.boot(); err != nil {
		return err
	}
	if err := out.Encode(map[string]any{"ready": s.ready}); err != nil {
		return err
	}
	for {
		line, err := in.ReadBytes('\n')
		if err != nil {
			// The parent went away: nothing to report to.
			s.shutdown()
			return nil
		}
		var cmd struct {
			Cmd      string `json:"cmd"`
			Admitted uint64 `json:"admitted"`
		}
		if err := json.Unmarshal(line, &cmd); err != nil {
			return fmt.Errorf("sut: command: %w", err)
		}
		switch cmd.Cmd {
		case "snap":
			if err := out.Encode(map[string]any{"snap": s.snap()}); err != nil {
				return err
			}
		case "stop":
			rep := s.stop(cmd.Admitted)
			return out.Encode(map[string]any{"report": rep})
		default:
			return fmt.Errorf("sut: unknown command %q", cmd.Cmd)
		}
	}
}

func (s *sut) boot() error {
	w := s.w
	counter, _, err := mapCounter(s.cfg.Dir+"/counters", false)
	if err != nil {
		return fmt.Errorf("sut: shared counter: %w", err)
	}
	s.rec = newRecorder(int64(w.LimitMS*1e6), s.cfg.ExpectSamples, counter)
	if s.cfg.Traced {
		s.table = &stampTable{recs: make([]stamps, s.cfg.ExpectSamples)}
	}
	stages := &stageSet{w: w, seed: s.cfg.Seed, rec: s.rec, traced: s.table}
	names := w.stages()

	// Observability exactly as `drsctl serve` wires it, into memory.
	if w.DecisionLog {
		s.dlog = obs.NewLog(obs.Config{Sink: &s.dlogSink})
	}
	permille := w.TracePermille
	if s.cfg.Traced {
		permille = 1000
	}
	if permille > 0 {
		s.tracer = obs.NewTracer(obs.TracerConfig{
			Shards: 8, ShardCapacity: 1 << 16,
			SamplePermille: permille,
			Sink:           &s.traceSink,
			Assembler:      obs.NewAssembler(obs.AssemblerConfig{OnComplete: s.traces.onComplete, MaxPending: 1 << 20}),
			FlushEvery:     2 * time.Millisecond,
		})
	}

	// Durable boot: recover the pre-seeded log before anything is built.
	if w.Durable {
		start := time.Now()
		l, recd, err := wal.Open(wal.Options{Dir: s.cfg.WALDir})
		if err != nil {
			return fmt.Errorf("sut: wal recovery: %w", err)
		}
		s.walLog = l
		s.ready.RecoverS = time.Since(start).Seconds()
		s.ready.Recovered = recd.Records
	}

	interval := time.Duration(w.IntervalMS) * time.Millisecond
	gcfg := ingest.GateConfig{
		Name: w.Name, RingCapacity: ringCapacity,
		DecisionLog: s.dlog, Tracer: s.tracer,
	}
	if w.Control {
		gcfg.Tmax = w.TmaxMS / 1e3
		gcfg.MaxSlots = w.SlotsPerMachine * w.MaxMachines
		gcfg.ReplanEvery = interval
	}
	s.gate = ingest.NewGate(gcfg)
	if s.walLog != nil {
		if err := s.gate.AttachWAL(s.walLog); err != nil {
			return err
		}
	}

	src := s.gate.Source()
	if s.cfg.Traced {
		s.source = &sourceProbe{table: s.table, ring: s.gate.Ring(), ackWait: &collector{}}
		src = decorateSource(src, s.source)
	}
	b := engine.NewTopology()
	b.Spout("ingest", 1, func(int) engine.Spout {
		return &engine.NetworkSpout{Source: src, MaxBatch: spoutMaxBatch}
	})
	factories := stages.factories()
	alloc := make(map[string]int, stageCount)
	prev := "ingest"
	for i, name := range names {
		b.Bolt(name, w.Tasks, factories[name])
		b.Shuffle(prev, name)
		alloc[name] = w.Alloc[i]
		prev = name
	}
	topo, err := b.Build()
	if err != nil {
		return err
	}
	s.run, err = topo.Start(engine.RunConfig{
		Alloc: alloc, QuiesceTimeout: 30 * time.Second,
		DecisionLog: s.dlog, Tracer: s.tracer,
	})
	if err != nil {
		return err
	}

	if w.Remote {
		if err := s.bootWorkers(stages); err != nil {
			return err
		}
	}
	if w.Control {
		if err := s.bootControl(names[:], interval); err != nil {
			return err
		}
	}
	if err := s.gate.Start(); err != nil {
		return err
	}

	// Replay before the listeners open, as serve does; ready waits for the
	// replay to drain so that replayed and fresh completions cannot mix.
	if s.walLog != nil {
		start := time.Now()
		n, err := s.gate.Replay()
		if err != nil {
			return fmt.Errorf("sut: wal replay: %w", err)
		}
		deadline := time.Now().Add(readyTimeoutS * time.Second)
		for s.rec.completed.Load() < uint64(n) {
			if time.Now().After(deadline) {
				return fmt.Errorf("sut: replay stalled at %d/%d", s.rec.completed.Load(), n)
			}
			time.Sleep(200 * time.Microsecond)
		}
		s.ready.ReplayS = time.Since(start).Seconds()
	}

	lcfg := ingest.ListenerConfig{Rate: w.ClientRate, Burst: int(w.ClientRate)}
	if w.Transport == "tcp" {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.tcpL = l
		s.ready.TCPAddr = l.Addr().String()
		var serveL net.Listener = l
		if s.cfg.Traced {
			serveL = &timedListener{Listener: l, table: s.table, handle: &s.tcpHandle}
		}
		go func() {
			if err := ingest.ServeTCP(serveL, s.gate, lcfg); err != nil {
				fmt.Fprintln(os.Stderr, "sut: tcp listener died:", err)
			}
		}()
	} else {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.ready.HTTPAddr = l.Addr().String()
		h := ingest.Handler(s.gate, lcfg)
		if s.cfg.Traced {
			h = &timedHandler{inner: h, table: s.table, handle: &s.httpHandle}
		}
		s.httpSrv = &http.Server{Handler: h}
		go s.httpSrv.Serve(l)
	}

	s.sampleStop, s.sampleDone = make(chan struct{}), make(chan struct{})
	go s.sample()
	return nil
}

// bootWorkers hosts the workers inside this process: real coordinator,
// real frame codec and shuttle over loopback TCP, real heartbeats — only
// the process boundary is dropped, so four processes do not fight over
// two cores.
func (s *sut) bootWorkers(stages *stageSet) error {
	var bindMu sync.Mutex
	next := 1 // machine 0 is the SUT itself
	s.coord = worker.NewCoordinator(worker.CoordinatorConfig{
		Seed:        s.cfg.Seed,
		DecisionLog: s.dlog,
		Bind: func(string, int) (int, error) {
			bindMu.Lock()
			defer bindMu.Unlock()
			id := next
			next++
			return id, nil
		},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.workerL = l
	var serveL net.Listener = l
	if s.cfg.Traced {
		s.wire = &countingListener{Listener: l}
		serveL = s.wire
	}
	go s.coord.Serve(serveL)
	total := 0
	for _, k := range s.w.Alloc {
		total += k
	}
	placement := make(map[int]int, remoteMachines)
	for i := 0; i < remoteMachines; i++ {
		wk, err := worker.Dial(worker.Config{
			Addr: l.Addr().String(),
			Name: fmt.Sprintf("bench-w%d", i+1),
			Build: func(int64) (map[string]engine.BoltFactory, error) {
				return stages.factories(), nil
			},
		})
		if err != nil {
			return fmt.Errorf("sut: worker dial: %w", err)
		}
		go wk.Run()
		s.wkrs = append(s.wkrs, wk)
		placement[wk.Machine()] = (total + remoteMachines - 1 - i) / remoteMachines
	}
	if err := s.coord.WaitWorkers(remoteMachines, 10*time.Second); err != nil {
		return err
	}
	remote := s.coord.Remote
	if s.cfg.Traced {
		s.remotes = make(map[int]*timedRemote, remoteMachines)
		remote = func(machine int) engine.RemoteExecutor {
			if t := s.remotes[machine]; t != nil {
				return t
			}
			inner := s.coord.Remote(machine)
			if inner == nil {
				return nil
			}
			t := &timedRemote{inner: inner, rtt: &s.shuttleRTT}
			s.remotes[machine] = t
			return t
		}
	}
	plan := worker.ApplyPlacement(s.run, s.run.Allocation(), placement, 0, remote)
	if plan.Errors != 0 || plan.Local != 0 {
		return fmt.Errorf("sut: placement left executors unbound: %+v", plan)
	}
	return nil
}

// bootControl wires the paper's loop as `drsctl serve` does: one tenant
// leased through the scheduler, a MinResource controller, the supervisor
// reading offered load through the gate's probe.
func (s *sut) bootControl(names []string, interval time.Duration) error {
	w := s.w
	var err error
	s.pool, err = cluster.NewPool(cluster.PoolConfig{
		SlotsPerMachine: w.SlotsPerMachine,
		MaxMachines:     w.MaxMachines,
		Costs: cluster.CostModel{
			Rebalance:        200 * time.Millisecond,
			MachineColdStart: 500 * time.Millisecond,
			MachineRelease:   200 * time.Millisecond,
		},
	}, 1)
	if err != nil {
		return err
	}
	sched, err := cluster.NewScheduler(cluster.SchedulerConfig{Pool: s.pool, DecisionLog: s.dlog})
	if err != nil {
		return err
	}
	initial := 0
	for _, k := range w.Alloc {
		initial += k
	}
	s.lease, err = sched.Register(cluster.TenantConfig{Name: w.Name, MinSlots: len(names), InitialSlots: initial})
	if err != nil {
		return err
	}
	ctrl, err := core.NewController(core.ControllerConfig{
		Mode: core.ModeMinResource, Tmax: w.TmaxMS / 1e3,
		MinGain: 0.05, ScaleInSlack: 0.3, MaxScaleInUtilization: 0.6,
	})
	if err != nil {
		return err
	}
	var target loop.Target = ingest.SupervisedTarget{Inner: loop.EngineTarget(s.run), Gate: s.gate}
	var stepper core.Stepper = ctrl
	var pool loop.Pool = s.lease
	if s.cfg.Traced {
		s.target = &timedTarget{Target: target}
		s.stepper = &timedStepper{inner: ctrl, step: &s.stepNS, tmax: ctrl.Tmax()}
		target, stepper, pool = s.target, s.stepper, &timedLease{Tenant: s.lease, resize: &s.resizeNS}
	}
	s.sup, err = loop.New(loop.Config{
		Target: target, Operators: names, Stepper: stepper, Pool: pool,
		Interval: interval, Tenant: w.Name, DecisionLog: s.dlog,
	})
	if err != nil {
		return err
	}
	s.gate.SetControl(s.sup)
	return s.sup.Start()
}

// slotsNow is what mean_slots integrates: the lease's grant under
// control, the fixed executor total otherwise.
func (s *sut) slotsNow() int {
	if s.lease != nil {
		return s.lease.Granted()
	}
	total := 0
	for _, k := range s.w.Alloc {
		total += k
	}
	return total
}

// sample integrates the slots held and notes allocation changes and
// goroutine highs, every 50 ms, off every hot path.
func (s *sut) sample() {
	defer close(s.sampleDone)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	last := time.Now()
	lastTotal := -1
	for {
		select {
		case <-s.sampleStop:
			return
		case now := <-tick.C:
			slots := s.slotsNow()
			s.mu.Lock()
			s.slotSeconds += float64(slots) * now.Sub(last).Seconds()
			last = now
			if g := runtime.NumGoroutine(); g > s.gorMax {
				s.gorMax = g
			}
			if s.pool != nil {
				if m := s.pool.Machines(); m > s.machinesMax {
					s.machinesMax = m
				}
			}
			if s.w.Control {
				alloc := s.run.Allocation()
				total := 0
				for _, k := range alloc {
					total += k
				}
				if total != lastTotal {
					lastTotal = total
					s.changes = append(s.changes, allocChange{AtNS: now.UnixNano(), Alloc: alloc, Total: total})
				}
			}
			s.mu.Unlock()
		}
	}
}

func (s *sut) snap() sutSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mu.Lock()
	slotSeconds := s.slotSeconds
	s.mu.Unlock()
	return sutSnap{
		AtNS:        time.Now().UnixNano(),
		CPUUserNS:   ru.Utime.Nano(),
		CPUSysNS:    ru.Stime.Nano(),
		MaxRSSKB:    int64(ru.Maxrss),
		Mallocs:     ms.Mallocs,
		GCCycles:    ms.NumGC,
		GCPauseNS:   ms.PauseTotalNs,
		Goroutines:  runtime.NumGoroutine(),
		SlotSeconds: slotSeconds,
	}
}

// stop drains (sink completions must reach what the generator saw
// admitted, pre-seeded records included), shuts the stack down in serve's
// order, and folds the report.
func (s *sut) stop(admitted uint64) sutReport {
	deadline := time.Now().Add(drainSeconds * time.Second)
	for s.rec.completed.Load() < admitted && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// The sink's stamp precedes the ack tree's completion; give the books
	// the same bounded wait.
	for time.Now().Before(deadline) {
		started, completed, _ := s.run.RootTotals()
		if started == completed && (s.walLog == nil || s.gate.Watermark() >= s.gate.Ring().Pushed()) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	var rep sutReport
	if got := s.rec.completed.Load(); got < admitted {
		rep.DrainIncompleteN = int64(admitted - got)
	}
	rep.Final = s.snap()
	rep.Gate = s.gate.Stats()
	rep.RootsStarted, rep.RootsCompleted, _ = s.run.RootTotals()
	_, mean := s.run.Completions()
	rep.MeanSojournMS = mean.Seconds() * 1e3
	rep.Alloc = s.run.Allocation()
	rep.RemoteBound = make(map[string]int, stageCount)
	for _, name := range s.w.stages() {
		n, _ := s.run.Errors(name)
		rep.BoltErrors += n
		rep.RemoteBound[name], _ = s.run.RemoteBound(name)
	}
	rep.SpoutErrors, _ = s.run.SpoutErrors()
	rep.ExecFailures = s.run.ExecutorFailures()
	rep.Replayed = s.run.Replayed()
	if s.lease != nil {
		rep.Granted = s.lease.Granted()
		rep.SlotCap = s.w.SlotsPerMachine * s.w.MaxMachines
	}
	if s.sup != nil {
		rep.Rounds = s.sup.Rounds()
		rep.Decisions = make(map[string]int)
		for _, ev := range s.sup.History() {
			kind := ev.Action.String()
			switch {
			case ev.Suppressed:
				kind = "suppressed"
			case ev.Err != nil:
				kind = "failed"
			case ev.Preempted || ev.SlotsLost:
				kind = "forced"
			}
			rep.Decisions[kind]++
		}
	}
	if s.coord != nil {
		rep.WorkerJoins, rep.WorkerDeaths = s.coord.Counts()
	}
	if s.cfg.Traced {
		s.foldLayers(&rep)
	}
	s.shutdown()
	rep.Sink = s.rec.report(s.w.windowSeconds())
	if s.walLog != nil {
		rep.WALTail, rep.WALWatermark = s.walLog.TailSeq(), s.gate.Watermark()
		rep.WALSegments = s.walLog.Segments()
		rep.WALBytes = dirBytes(s.cfg.WALDir)
		if err := s.walLog.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "sut: wal close:", err)
		}
	}
	for _, wk := range s.wkrs {
		b, t := wk.Counts()
		rep.WorkerBatches += b
		rep.WorkerTuples += t
	}
	s.mu.Lock()
	rep.AllocChanges = s.changes
	rep.GoroutinesMax = s.gorMax
	rep.MachinesMax = s.machinesMax
	s.mu.Unlock()
	if s.cfg.Traced {
		s.foldTraces(&rep)
	}
	return rep
}

// shutdown follows serve's order: listeners, gate, supervisor, engine,
// workers, observability.
func (s *sut) shutdown() {
	if s.sampleStop != nil {
		close(s.sampleStop)
		<-s.sampleDone
		s.sampleStop = nil
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	if s.tcpL != nil {
		s.tcpL.Close()
	}
	s.gate.Close()
	if s.sup != nil {
		s.sup.Stop()
	}
	if s.walLog != nil {
		if err := s.gate.SyncWatermark(); err != nil && !errors.Is(err, ingest.ErrNotDurable) {
			fmt.Fprintln(os.Stderr, "sut: final watermark sync:", err)
		}
	}
	if err := s.run.Stop(); err != nil && !errors.Is(err, engine.ErrStopped) {
		fmt.Fprintln(os.Stderr, "sut: engine stop:", err)
	}
	if s.coord != nil {
		s.workerL.Close()
		for _, wk := range s.wkrs {
			wk.Close()
		}
		s.coord.Close()
	}
	if err := s.tracer.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "sut: tracer close:", err)
	}
	if err := s.dlog.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "sut: decision log close:", err)
	}
}

func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !info.IsDir() {
			total += info.Size()
		}
	}
	return total
}
