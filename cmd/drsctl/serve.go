package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/ingest"
	"github.com/drs-repro/drs/internal/node"
	"github.com/drs-repro/drs/internal/obs"
)

// liveCosts are the modelled transition pauses of every live command's
// pool: scaled down so the pauses stay visible but short.
var liveCosts = cluster.CostModel{
	Rebalance:        200 * time.Millisecond,
	MachineColdStart: 500 * time.Millisecond,
	MachineRelease:   200 * time.Millisecond,
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
// cluster scales out, never unbounded queues. The assembly — boot order,
// worker tier, drain order — is internal/node's; this is flags in, a
// node.Config, and the report out.
func cmdServe(tf topoFile, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	tmaxMS := fs.Float64("tmax-ms", 0, "latency target in ms the gate and supervisor defend (required)")
	httpAddr := fs.String("http", "127.0.0.1:8080", "HTTP listen address (empty disables)")
	tcpAddr := fs.String("tcp", "", "length-prefixed TCP listen address (empty disables)")
	duration := fs.Float64("duration", 60, "wall-clock seconds to serve")
	intervalMS := fs.Int("interval-ms", 500, "measurement cadence Tm in ms")
	slots := fs.Int("slots", 4, "executor slots per machine")
	maxMachines := fs.Int("max-machines", 4, "machine cap the negotiator may provision")
	clientRate := fs.Float64("client-rate", 0, "per-client token-bucket rate in records/s, burst of one second's worth (0 = unlimited)")
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
	// Tasks cap executor parallelism per operator, and the optimizer may
	// concentrate the whole pool on one.
	tasks := *slots * *maxMachines
	cfg := node.Config{
		Build:           func(b *engine.TopologyBuilder) { node.AddOperators(b, tf, tasks, *seed) },
		Entry:           entryOperator(tf),
		Tasks:           tasks,
		Tmax:            *tmaxMS / 1e3,
		Interval:        time.Duration(*intervalMS) * time.Millisecond,
		SlotsPerMachine: *slots,
		MaxMachines:     *maxMachines,
		Costs:           liveCosts,
		Clients:         ingest.ListenerConfig{Rate: *clientRate},
		HTTPAddr:        *httpAddr,
		TCPAddr:         *tcpAddr,
		WorkerAddr:      *workerListen,
		MinWorkers:      *minWorkers,
		Seed:            *seed,
		WALDir:          *walDir,
		DecisionSample:  *decisionSample,
		TraceSample:     *traceSample,
		Pprof:           *pprofFlag,
		Logger:          node.Logger(*verbose),
	}
	var err error
	if *decisionDir != "" {
		if cfg.DecisionSink, err = obs.NewFileSink(*decisionDir, 0); err != nil {
			return fmt.Errorf("decision log: %w", err)
		}
	}
	if *traceDir != "" {
		if cfg.TraceSink, err = obs.NewFileSinkNamed(*traceDir, "trace", 0); err != nil {
			return fmt.Errorf("trace sink: %w", err)
		}
	}
	n, err := node.Start(cfg)
	if err != nil {
		return err
	}

	// Serve until the duration elapses or a SIGTERM/SIGINT arrives — both
	// exit through the same drain, so a signal never abandons admitted
	// records.
	select {
	case <-time.After(secondsDuration(*duration)):
	case sig := <-serveInterrupts():
		cfg.Logger.Log(context.Background(), node.LevelNotice, "signal received: closing listeners and draining", "signal", sig.String())
	}
	rep := n.Drain()

	st := rep.Gate
	fmt.Printf("\ningest: offered %d, admitted %d (shed: rate-limit %d, overload %d, backlog %d)\n",
		st.Offered, st.Admitted, st.ShedRateLimit, st.ShedOverload, st.ShedBacklog)
	if *walDir != "" {
		fmt.Printf("wal: tail seq %d, watermark %d, replayed %d, %d live segment(s)\n",
			rep.WALTail, st.Watermark, st.Replayed, rep.WALSegments)
	}
	var meanMS float64
	if rep.Completions > 0 {
		meanMS = rep.Sojourn.Seconds() * 1e3 / float64(rep.Completions)
	}
	fmt.Printf("engine: %d completions, mean sojourn %.1f ms, final alloc %v, %d machines\n",
		rep.Completions, meanMS, rep.Alloc, rep.Machines)
	if *workerListen != "" {
		fmt.Printf("worker tier: %d executor failure(s) healed, %d replay(s)\n", rep.ExecutorFailures, rep.Replays)
	}
	rep.WriteHistory(os.Stdout)
	return nil
}

// entryOperator is where ingested records enter the topology: the first
// operator with an external rate, else the first operator.
func entryOperator(tf topoFile) string {
	for _, op := range tf.Operators {
		if op.ExternalRate > 0 {
			return op.Name
		}
	}
	return tf.Operators[0].Name
}
