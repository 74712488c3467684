package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
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

// Slowloris guards on both daemons' HTTP listeners: a client gets this
// long to finish its request headers, and a keep-alive connection this
// long between requests, before the server reclaims the connection.
// Bodies and responses stay unbounded (a pprof profile streams for 30 s).
const (
	httpReadHeaderTimeout = 5 * time.Second
	httpIdleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps a daemon mux in a server with the timeouts set.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: httpReadHeaderTimeout, IdleTimeout: httpIdleTimeout}
}

// serveInterrupts yields the channel cmdServe waits on for shutdown
// signals. A package var so the shutdown test can inject a signal
// without delivering a real SIGINT to the test process.
var serveInterrupts = func() <-chan os.Signal {
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt, syscall.SIGTERM)
	return c
}

// cmdServe runs the topology behind the network ingest front end: real
// clients push records over HTTP POST or length-prefixed TCP, the
// admission gate applies per-client token buckets and the DRS model's
// shed policy, admitted tuples flow through a NetworkSpout into the live
// engine, and the Supervisor provisions machines against the *offered*
// (pre-shed) arrival rate. It is the paper's control loop with a front
// door: overload produces explicit 429/NACK backpressure while the
// cluster scales out, never unbounded queues.
func cmdServe(tf topoFile, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	tmaxMS := fs.Float64("tmax-ms", 0, "latency target in ms the gate and supervisor defend (required)")
	httpAddr := fs.String("http", "127.0.0.1:8080", "HTTP listen address (empty disables)")
	tcpAddr := fs.String("tcp", "", "length-prefixed TCP listen address (empty disables)")
	duration := fs.Float64("duration", 60, "wall-clock seconds to serve")
	intervalMS := fs.Int("interval-ms", 500, "measurement cadence Tm in ms")
	entry := fs.String("entry", "", "operator ingested records enter at (default: first with an external rate, else the first operator)")
	tasks := fs.Int("tasks", 16, "tasks per operator (caps executor parallelism)")
	slots := fs.Int("slots", 4, "executor slots per machine")
	maxMachines := fs.Int("max-machines", 4, "machine cap the negotiator may provision")
	ringCap := fs.Int("ring", 4096, "ingest ring capacity (bounded hand-off to the engine)")
	clientRate := fs.Float64("client-rate", 0, "per-client token-bucket rate in records/s (0 = unlimited)")
	clientBurst := fs.Int("client-burst", 0, "per-client token-bucket burst (default = rate)")
	weights := fs.String("client-weights", "", "shedding weights per client id, e.g. gold=4,bronze=1")
	seed := fs.Int64("seed", 1, "workload seed")
	walDir := fs.String("wal-dir", "", "write-ahead log directory: durable admission (ACK after append) with crash-recovery replay on boot (empty = non-durable)")
	decisionDir := fs.String("decision-log", "", "decision log directory: every control-plane verdict (grants, preemptions, shed plans, re-fits, heals) as rotating NDJSON (empty = disabled)")
	decisionSample := fs.Int("decision-sample", 1000, "decision log sampling rate in permille, 1-1000 (1000 = keep everything; omit -decision-log to disable)")
	workerListen := fs.String("worker-listen", "", "worker registration address: `drsctl worker` processes host executors over framed TCP (empty = all in-process)")
	minWorkers := fs.Int("min-workers", 0, "workers to wait for before opening the ingest listeners")
	traceDir := fs.String("trace", "", "trace directory: sampled per-tuple root spans from gate to ack as rotating NDJSON (empty = disabled)")
	traceSample := fs.Int("trace-sample", 10, "trace sampling rate in permille (1000 = trace every admitted record)")
	pprofFlag := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the HTTP listener")
	verbose := fs.Bool("v", false, "log every loop event")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tmaxMS <= 0 {
		return fmt.Errorf("-tmax-ms is required and must be positive")
	}
	if *httpAddr == "" && *tcpAddr == "" {
		return fmt.Errorf("need at least one listener: -http or -tcp")
	}
	if *minWorkers > 0 && *workerListen == "" {
		return fmt.Errorf("-min-workers needs -worker-listen")
	}
	// 0 is rejected, not read as "log nothing": obs.NewLog takes a
	// non-positive rate as "default", i.e. everything. A disabled log is
	// spelled by omitting -decision-log.
	if *decisionSample < 1 || *decisionSample > 1000 {
		return fmt.Errorf("-decision-sample wants permille in [1,1000], got %d", *decisionSample)
	}
	if *traceSample < 1 || *traceSample > 1000 {
		return fmt.Errorf("-trace-sample wants permille in [1,1000], got %d", *traceSample)
	}
	if *pprofFlag && *httpAddr == "" {
		return fmt.Errorf("-pprof needs the -http listener")
	}
	weightMap, err := parseWeights(*weights)
	if err != nil {
		return err
	}
	entryOp := *entry
	if entryOp == "" {
		entryOp = tf.Operators[0].Name
		for _, op := range tf.Operators {
			if op.ExternalRate > 0 {
				entryOp = op.Name
				break
			}
		}
	}
	found := false
	for _, op := range tf.Operators {
		if op.Name == entryOp {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("entry operator %q is not in the topology", entryOp)
	}

	// Durable boot: recover the log and the control checkpoint before
	// anything is built — the checkpoint seeds the engine allocation, the
	// lease size and the supervisor's hysteresis; the log's unacked
	// records are replayed once the engine is up.
	var (
		walLog   *wal.Log
		ckpt     wal.Checkpoint
		haveCkpt bool
	)
	if *walDir != "" {
		var walRec wal.Recovered
		walLog, walRec, err = wal.Open(wal.Options{Dir: *walDir})
		if err != nil {
			return fmt.Errorf("wal recovery: %w", err)
		}
		defer walLog.Close()
		ckpt, haveCkpt, err = wal.LoadCheckpoint(*walDir)
		if err != nil {
			return err
		}
		fmt.Printf("wal: recovered %d segment(s), %d record(s), tail seq %d, watermark %d (torn tail: %d bytes)\n",
			walRec.Segments, walRec.Records, walRec.TailSeq, walRec.Watermark, walRec.TruncatedBytes)
		if haveCkpt {
			fmt.Printf("checkpoint: %d slots, %d rounds, alloc %v\n", ckpt.Slots, ckpt.Rounds, ckpt.Alloc)
		}
	}

	// The decision log: control-plane verdicts from every decider stream
	// asynchronously into rotating NDJSON, never blocking the deciders.
	var dlog *obs.Log
	if *decisionDir != "" {
		sink, err := obs.NewFileSink(*decisionDir, 0)
		if err != nil {
			return fmt.Errorf("decision log: %w", err)
		}
		dlog = obs.NewLog(obs.Config{SamplePermille: *decisionSample, Sink: sink})
		defer func() {
			if err := dlog.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "drsctl: decision log close:", err)
			}
		}()
		fmt.Printf("decision log in %s (sampling %d permille)\n", *decisionDir, *decisionSample)
	}
	metrics := newServeMetrics("serve")

	// Per-tuple tracing: deterministic hash sampling at the admission ring,
	// spans from every stage stitched by the assembler into the latency
	// breakdown histograms, raw traces into rotating NDJSON.
	var tracer *obs.Tracer
	if *traceDir != "" {
		tsink, err := obs.NewFileSinkNamed(*traceDir, "trace", 0)
		if err != nil {
			return fmt.Errorf("trace sink: %w", err)
		}
		opNames := make([]string, len(tf.Operators))
		for i, op := range tf.Operators {
			opNames[i] = op.Name
		}
		tracer = obs.NewTracer(obs.TracerConfig{
			SamplePermille: *traceSample,
			Sink:           tsink,
			Assembler:      metrics.traceAssembler(opNames),
		})
		defer func() {
			if err := tracer.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "drsctl: tracer close:", err)
			}
		}()
		fmt.Printf("tracing in %s (sampling %d permille)\n", *traceDir, *traceSample)
	}

	// The gate, then the engine behind it: a NetworkSpout drains the
	// gate's source into the entry operator.
	maxSlots := *slots * *maxMachines
	gate := ingest.NewGate(ingest.GateConfig{
		Name:         "serve",
		Tmax:         *tmaxMS / 1e3,
		MaxSlots:     maxSlots,
		RingCapacity: *ringCap,
		ReplanEvery:  time.Duration(*intervalMS) * time.Millisecond,
		DecisionLog:  dlog,
		Tracer:       tracer,
	})
	if walLog != nil {
		if err := gate.AttachWAL(walLog); err != nil {
			return err
		}
	}
	if *tasks < maxSlots {
		*tasks = maxSlots
	}
	initial := make([]int, len(tf.Operators))
	for i := range initial {
		initial[i] = 1
	}
	initSlots := len(tf.Operators)
	if haveCkpt && len(ckpt.Alloc) > 0 {
		// Resume the checkpointed allocation when it still fits the cap;
		// a stale oversized checkpoint falls back to a cold start.
		restored, sum := make([]int, len(initial)), 0
		for i, op := range tf.Operators {
			k := ckpt.Alloc[op.Name]
			if k < 1 {
				k = 1
			}
			if k > *tasks {
				k = *tasks
			}
			restored[i] = k
			sum += k
		}
		if sum <= maxSlots {
			initial = restored
			if sum > initSlots {
				initSlots = sum
			}
		}
	}
	b := engine.NewTopology()
	names, alloc := addLiveOperators(b, tf, initial, *tasks, *seed)
	b.Spout("ingest", 1, func(int) engine.Spout {
		return &engine.NetworkSpout{Source: gate.Source(), MaxBatch: 256}
	})
	b.Shuffle("ingest", entryOp)
	topo, err := b.Build()
	if err != nil {
		return err
	}
	run, err := topo.Start(engine.RunConfig{Alloc: alloc, QuiesceTimeout: 30 * time.Second, DecisionLog: dlog, Tracer: tracer})
	if err != nil {
		return err
	}
	defer run.Stop()

	// A single tenant leased through the Scheduler, so a beyond-cap scale
	// request grants partially instead of being refused outright.
	pool, err := cluster.NewPool(cluster.PoolConfig{
		SlotsPerMachine: *slots,
		MaxMachines:     *maxMachines,
		Costs: cluster.CostModel{
			Rebalance:        200 * time.Millisecond,
			MachineColdStart: 500 * time.Millisecond,
			MachineRelease:   200 * time.Millisecond,
		},
	}, 1)
	if err != nil {
		return err
	}
	sched, err := cluster.NewScheduler(cluster.SchedulerConfig{Pool: pool, DecisionLog: dlog})
	if err != nil {
		return err
	}
	if initSlots > maxSlots {
		initSlots = maxSlots
	}
	lease, err := sched.Register(cluster.TenantConfig{
		Name: "serve", MinSlots: len(names), InitialSlots: initSlots,
	})
	if err != nil {
		return err
	}
	ctrl, err := core.NewController(core.ControllerConfig{
		Mode:                  core.ModeMinResource,
		Tmax:                  *tmaxMS / 1e3,
		MinGain:               0.05,
		ScaleInSlack:          0.3,
		MaxScaleInUtilization: 0.6,
	})
	if err != nil {
		return err
	}
	level := slog.LevelWarn
	if *verbose {
		level = slog.LevelInfo
	}
	var resume *loop.PersistedState
	if haveCkpt {
		resume = &loop.PersistedState{
			Rounds:            ckpt.Rounds,
			CooldownRemaining: time.Duration(ckpt.CooldownMS) * time.Millisecond,
		}
	}
	sup, err := loop.New(loop.Config{
		Target:      ingest.SupervisedTarget{Inner: loop.EngineTarget(run), Gate: gate},
		Operators:   names,
		Stepper:     ctrl,
		Pool:        lease,
		Interval:    time.Duration(*intervalMS) * time.Millisecond,
		Logger:      slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})),
		Resume:      resume,
		Tenant:      "serve",
		DecisionLog: dlog,
		Sojourn:     metrics.sojourn,
		ShedFrac:    metrics.shedFrac,
	})
	if err != nil {
		return err
	}
	gate.SetControl(sup)
	if err := gate.Start(); err != nil {
		return err
	}
	if err := sup.Start(); err != nil {
		return err
	}

	// The worker tier: remote processes register here, lease a pool
	// machine, and host executors over the framed shuttle. Machine fate
	// and process fate are tied both ways — a lapsed heartbeat lease fails
	// the pool machine, and a scripted pool Fail of a worker-backed
	// machine severs the real connection.
	var (
		coord      *worker.Coordinator
		workerL    net.Listener
		placeNudge = make(chan struct{}, 1)
	)
	nudgePlacement := func() {
		select {
		case placeNudge <- struct{}{}:
		default:
		}
	}
	if *workerListen != "" {
		var synthetic atomic.Int64 // ids past the pool when it is full
		coord = worker.NewCoordinator(worker.CoordinatorConfig{
			Seed:        *seed,
			DecisionLog: dlog,
			Bind: func(name string, pid int) (int, error) {
				lessee := fmt.Sprintf("%s/%d", name, pid)
				for _, m := range pool.MachineList() {
					if err := pool.BindWorker(m.ID, lessee); err != nil {
						continue // already backed; try the next machine
					}
					if m.Failed {
						// A replacement process re-backs the crashed
						// machine: capacity returns with it.
						_ = pool.Recover(m.ID)
					}
					return m.ID, nil
				}
				// Every pool machine is backed (or the pool is small right
				// now): the worker still joins, on an id beyond the pool.
				return int(1000 + synthetic.Add(1)), nil
			},
			OnJoin: func(machine int) {
				fmt.Printf("worker tier: machine %d joined\n", machine)
				nudgePlacement()
			},
			OnDeath: func(machine int) {
				pool.UnbindWorker(machine)
				// A dead worker is a dead machine; ignore the error for
				// synthetic ids and machines the pool already failed.
				_ = pool.Fail(machine)
				fmt.Printf("worker tier: machine %d died, executors heal local\n", machine)
				nudgePlacement()
			},
		})
		pool.AddChurnListener(func(ev cluster.ChurnEvent) {
			if ev.Kind == "machine-fail" {
				coord.DropWorker(ev.Machine)
			}
			nudgePlacement()
		})
		workerL, err = net.Listen("tcp", *workerListen)
		if err != nil {
			return err
		}
		go coord.Serve(workerL)
		fmt.Printf("worker registration on %s\n", workerL.Addr())
		if *minWorkers > 0 {
			if err := coord.WaitWorkers(*minWorkers, 60*time.Second); err != nil {
				return err
			}
		}
	}
	// Placement re-application: every control interval (and on every join,
	// death or churn event) the engine's current allocation is spread over
	// the live workers, slotsPerMachine executors each, remainder local.
	// Idempotent bindings make the steady-state pass a no-op; after a
	// Rebalance (which rebuilds executors local) the next pass pushes them
	// back out.
	stopPlace := make(chan struct{})
	placeDone := make(chan struct{})
	if coord != nil {
		go func() {
			defer close(placeDone)
			tick := time.NewTicker(time.Duration(*intervalMS) * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopPlace:
					return
				case <-tick.C:
				case <-placeNudge:
				}
				applyWorkerPlacement(run, coord, *slots)
			}
		}()
	} else {
		close(placeDone)
	}

	// Replay the recovered unacked records through the now-running spout
	// BEFORE the listeners open: replayed and fresh traffic never
	// interleave, and every re-injected record is already in the log.
	if walLog != nil {
		replayed, err := gate.Replay()
		if err != nil {
			return fmt.Errorf("wal replay: %w", err)
		}
		fmt.Printf("wal: replaying %d unacked record(s) through the spout\n", replayed)
	}

	// Periodic control-plane checkpoints beside the segments: allocation,
	// lease grant, hysteresis and the cumulative books (carried across
	// lives by summing on top of the recovered checkpoint).
	saveCheckpoint := func() {
		st := gate.Stats()
		ps := sup.PersistedState()
		completions, _ := run.Completions()
		_ = wal.SaveCheckpoint(*walDir, wal.Checkpoint{
			Seq:        walLog.TailSeq(),
			Watermark:  st.Watermark,
			Alloc:      run.Allocation(),
			Slots:      lease.Granted(),
			Rounds:     ps.Rounds,
			CooldownMS: ps.CooldownRemaining.Milliseconds(),
			Admitted:   ckpt.Admitted + uint64(st.Admitted),
			Completed:  ckpt.Completed + uint64(completions),
			Shed:       ckpt.Shed + uint64(st.ShedRateLimit+st.ShedOverload+st.ShedBacklog),
		})
	}
	stopCkpt := make(chan struct{})
	ckptDone := make(chan struct{})
	if walLog != nil {
		go func() {
			defer close(ckptDone)
			tick := time.NewTicker(time.Duration(*intervalMS) * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopCkpt:
					return
				case <-tick.C:
					saveCheckpoint()
				}
			}
		}()
	} else {
		close(ckptDone)
	}

	// Every metric family reads live components, so registration waits
	// until the whole daemon is assembled.
	metrics.register(gate, run, names, sup, lease, pool, walLog, coord, dlog, tracer)

	lcfg := ingest.ListenerConfig{
		Weights: weightMap,
		Rate:    *clientRate,
		Burst:   *clientBurst,
	}
	var httpSrv *http.Server
	if *httpAddr != "" {
		l, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("/", ingest.Handler(gate, lcfg))
		mux.Handle("/metrics", metrics.reg.Handler())
		if *pprofFlag {
			registerPprof(mux)
			fmt.Printf("pprof on http://%s/debug/pprof/\n", l.Addr())
		}
		httpSrv = newHTTPServer(mux)
		go httpSrv.Serve(l)
		fmt.Printf("HTTP ingest on http://%s/ingest (stats on /stats, Prometheus on /metrics)\n", l.Addr())
	}
	var tcpL net.Listener
	if *tcpAddr != "" {
		tcpL, err = net.Listen("tcp", *tcpAddr)
		if err != nil {
			return err
		}
		go func() {
			// A non-close Accept failure kills the TCP front door; say so
			// instead of serving HTTP-only in silence.
			if err := ingest.ServeTCP(tcpL, gate, lcfg); err != nil {
				fmt.Fprintln(os.Stderr, "drsctl: tcp ingest listener died:", err)
			}
		}()
		fmt.Printf("TCP ingest on %s (length-prefixed frames)\n", tcpL.Addr())
	}
	fmt.Printf("serving %d operators for %.0fs behind the admission gate (Tmax = %.0f ms, entry %q, cap %d slots)\n",
		len(names), *duration, *tmaxMS, entryOp, maxSlots)

	// Serve until the duration elapses or a SIGTERM/SIGINT arrives — both
	// exit through the same drain path, so a signal never abandons
	// admitted records.
	sigC := serveInterrupts()
	select {
	case <-time.After(secondsDuration(*duration)):
	case sig := <-sigC:
		fmt.Printf("\nreceived %v: closing listeners and draining the ingest ring\n", sig)
	}

	// Orderly shutdown: listeners first, then the gate (closing the ring),
	// then drain and stop — admitted records are never abandoned. The
	// drain is bounded: a wedged engine should not make shutdown hang.
	if httpSrv != nil {
		httpSrv.Close()
	}
	if tcpL != nil {
		tcpL.Close()
	}
	gate.Close()
	drainDeadline := time.Now().Add(10 * time.Second)
	for gate.Ring().Len() > 0 && time.Now().Before(drainDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	sup.Stop()
	close(stopPlace)
	<-placeDone
	if coord != nil {
		// Workers last: they participate in the drain above; any batch
		// still in flight when the shuttles close replays in-process.
		workerL.Close()
		coord.Close()
	}
	close(stopCkpt)
	<-ckptDone

	if walLog != nil {
		// Final watermark sync + checkpoint: completions up to this
		// instant retire their log frames, so the next boot replays only
		// what truly never finished.
		for gate.Watermark() < gate.Ring().Pushed() && time.Now().Before(drainDeadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if err := gate.SyncWatermark(); err != nil {
			fmt.Fprintln(os.Stderr, "drsctl: final watermark sync:", err)
		}
		saveCheckpoint()
	}

	st := gate.Stats()
	fmt.Printf("\ningest: offered %d, admitted %d (shed: rate-limit %d, overload %d, backlog %d)\n",
		st.Offered, st.Admitted, st.ShedRateLimit, st.ShedOverload, st.ShedBacklog)
	if walLog != nil {
		fmt.Printf("wal: tail seq %d, watermark %d, replayed %d, %d live segment(s)\n",
			walLog.TailSeq(), st.Watermark, st.Replayed, walLog.Segments())
	}
	completions, meanSojourn := run.Completions()
	fmt.Printf("engine: %d completions, mean sojourn %.1f ms, final alloc %v, %d machines\n",
		completions, meanSojourn.Seconds()*1e3, run.Allocation(), pool.Machines())
	if coord != nil {
		fmt.Printf("worker tier: %d executor failure(s) healed, %d replay(s)\n",
			run.ExecutorFailures(), run.Replayed())
	}
	fmt.Printf("\n%d control rounds, decision history:\n", sup.Rounds())
	events := sup.History()
	if len(events) == 0 {
		fmt.Println("  (none: the loop held steady every round)")
	}
	for _, ev := range events {
		fmt.Printf("  %s\n", ev)
	}
	return nil
}

// parseWeights reads a "id=weight,id=weight" list.
func parseWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad client weight %q (want id=weight)", part)
		}
		w, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad client weight %q: want a positive number", part)
		}
		out[kv[0]] = w
	}
	return out, nil
}
