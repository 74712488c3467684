package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/node"
	"github.com/drs-repro/drs/internal/obs"
	"github.com/drs-repro/drs/internal/worker"
)

// workerInterrupts yields the channel cmdWorker waits on for shutdown
// signals; a package var so tests can inject one.
var workerInterrupts = func() <-chan os.Signal {
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt, syscall.SIGTERM)
	return c
}

// cmdWorker runs one worker daemon: it dials the serve process's
// -worker-listen endpoint, registers, builds the topology file's bolt
// factories from the seed in the welcome (so its instances are
// bit-identical to the ones the serve process would host in-process), and
// processes shuttled batches until the connection dies or a signal
// arrives. Scaling out a `drsctl serve` node is now just starting more of
// these on other machines.
func cmdWorker(tf topoFile, args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	connect := fs.String("connect", "", "serve process's -worker-listen address (required)")
	name := fs.String("name", "", "worker name for diagnostics (default host-pid)")
	retryFor := fs.Float64("retry-for", 10, "seconds to keep retrying the initial connect (serve may still be booting)")
	metricsAddr := fs.String("metrics", "", "Prometheus /metrics listen address (empty disables)")
	pprofFlag := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -metrics listener")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" {
		return fmt.Errorf("-connect is required")
	}
	if !nonNegative(*retryFor) {
		return fmt.Errorf("-retry-for must be non-negative and finite, got %g", *retryFor)
	}
	if *pprofFlag && *metricsAddr == "" {
		return fmt.Errorf("-pprof needs the -metrics listener")
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	cfg := worker.Config{
		Addr: *connect,
		Name: *name,
		Build: func(seed int64) (map[string]engine.BoltFactory, error) {
			return node.OperatorFactories(tf, seed), nil
		},
	}
	// The serve process and its workers race to boot; retry the dial until
	// the registration endpoint is up.
	var (
		w        *worker.Worker
		err      error
		deadline = time.Now().Add(secondsDuration(*retryFor))
	)
	for {
		w, err = worker.Dial(cfg)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("worker: connect %s: %w", *connect, err)
		}
		time.Sleep(250 * time.Millisecond)
	}
	fmt.Printf("worker %q: registered as machine %d (pid %d, seed %d)\n",
		*name, w.Machine(), os.Getpid(), w.Seed())

	// The worker's own /metrics endpoint: its lease, what it hosts, and
	// how much it has processed.
	if *metricsAddr != "" {
		l, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		defer l.Close()
		reg := obs.NewRegistry()
		reg.Func("drs_worker_machine", "Pool machine id leased from the coordinator.",
			obs.Gauge, "", func() float64 { return float64(w.Machine()) })
		reg.Func("drs_worker_hosted_bolts", "Distinct bolts with a live runner on this worker.",
			obs.Gauge, "", func() float64 { return float64(w.HostedBolts()) })
		reg.Func("drs_worker_batches_total", "Batches this worker has processed.",
			obs.Counter, "", func() float64 { b, _ := w.Counts(); return float64(b) })
		reg.Func("drs_worker_tuples_total", "Tuples this worker has processed.",
			obs.Counter, "", func() float64 { _, t := w.Counts(); return float64(t) })
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		if *pprofFlag {
			fmt.Printf("worker %q: pprof on http://%s/debug/pprof/\n", *name, l.Addr())
		}
		go func() { _ = node.NewHTTPServer(mux, *pprofFlag).Serve(l) }()
		fmt.Printf("worker %q: Prometheus on http://%s/metrics\n", *name, l.Addr())
	}

	done := make(chan error, 1)
	go func() { done <- w.Run() }()
	select {
	case sig := <-workerInterrupts():
		fmt.Printf("worker %q: received %v, deregistering\n", *name, sig)
		w.Close()
		<-done
		return nil
	case err := <-done:
		if err != nil {
			return fmt.Errorf("worker: connection lost: %w", err)
		}
		return nil
	}
}
