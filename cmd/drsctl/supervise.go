package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/loop"
	"github.com/drs-repro/drs/internal/node"
)

// reservedSlots is the slot supervise's pool holds back off the budget
// (min-resource mode).
const reservedSlots = 1

// cmdSupervise materializes the topology file as a live engine run —
// Poisson spouts for the external rates, executors that busy an
// exponential service time per tuple, per-edge fractional forwarding —
// and puts the DRS Supervisor in charge of it for the requested duration.
// It is the closed §IV loop as a CLI: measure, re-solve, rebalance.
func cmdSupervise(tf topoFile, args []string) error {
	fs := flag.NewFlagSet("supervise", flag.ContinueOnError)
	kmax := fs.Int("kmax", 0, "fixed processor budget: supervise in min-latency mode (Program (4))")
	tmaxMS := fs.Float64("tmax-ms", 0, "latency target in ms: supervise in min-resource mode (Program (6))")
	duration := fs.Float64("duration", 30, "wall-clock seconds to run")
	intervalMS := fs.Int("interval-ms", 1000, "measurement cadence Tm in ms")
	allocStr := fs.String("alloc", "", "initial executors per operator (default 1 each)")
	slots := fs.Int("slots", 4, "executor slots per machine (min-resource mode)")
	maxMachines := fs.Int("max-machines", 8, "machine cap the negotiator may provision")
	seed := fs.Int64("seed", 1, "workload seed")
	verbose := fs.Bool("v", false, "log every loop event")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*kmax > 0) == (*tmaxMS > 0) {
		return fmt.Errorf("pass exactly one of -kmax or -tmax-ms")
	}

	initial := make([]int, len(tf.Operators))
	for i := range initial {
		initial[i] = 1
	}
	if *allocStr != "" {
		var err error
		if initial, err = parseAlloc(*allocStr, len(tf.Operators)); err != nil {
			return err
		}
	}
	alloc, total := make(map[string]int, len(initial)), 0
	for i, op := range tf.Operators {
		alloc[op.Name] = initial[i]
		total += initial[i]
	}

	// Tasks cap executor parallelism per operator, and the optimizer may
	// concentrate nearly the whole budget on one operator.
	tasks := *kmax
	if *tmaxMS > 0 {
		tasks = *slots**maxMachines - reservedSlots
	}

	var pool loop.Pool
	var ctrlCfg core.ControllerConfig
	if *kmax > 0 {
		if total > *kmax {
			return fmt.Errorf("initial allocation needs %d processors, budget is %d", total, *kmax)
		}
		pool = loop.FixedPool(*kmax)
		ctrlCfg = core.ControllerConfig{Mode: core.ModeMinLatency, Kmax: *kmax}
	} else {
		machines := (total + reservedSlots + *slots - 1) / *slots
		cp, err := cluster.NewPool(cluster.PoolConfig{
			SlotsPerMachine: *slots,
			ReservedSlots:   reservedSlots,
			MaxMachines:     *maxMachines,
			Costs:           liveCosts,
		}, machines)
		if err != nil {
			return err
		}
		pool = cp
		ctrlCfg = core.ControllerConfig{
			Mode:                  core.ModeMinResource,
			Tmax:                  *tmaxMS / 1e3,
			ScaleInSlack:          0.35,
			MaxScaleInUtilization: 0.9,
			SlotsPerMachine:       *slots,
			ReservedSlots:         reservedSlots,
		}
	}
	t, err := node.NewTenant(node.TenantConfig{
		Build:      liveTopology(tf, tasks, *seed),
		Alloc:      alloc,
		Controller: ctrlCfg,
		Pool:       pool,
		Interval:   time.Duration(*intervalMS) * time.Millisecond,
		Logger:     node.Logger(*verbose),
	})
	if err != nil {
		return err
	}
	defer t.Stop()
	fmt.Printf("supervising %d operators for %.0fs (Tm = %dms, %s), Kmax = %d, alloc = %v\n",
		len(tf.Operators), *duration, *intervalMS, ctrlCfg.Mode, pool.Kmax(), initial)
	if err := t.Start(); err != nil {
		return err
	}
	time.Sleep(secondsDuration(*duration))
	t.Sup.Stop()

	t.WriteHistory(os.Stdout, "")
	if snap, ok := t.Sup.LastSnapshot(); ok {
		fmt.Printf("\nfinal: lambda0 = %.2f tuples/s, measured E[T] = %.1f ms, Kmax = %d, alloc = %v\n",
			snap.Lambda0, snap.MeasuredSojourn*1e3, pool.Kmax(), t.Run.Allocation())
	}
	return nil
}

// liveTopology is the engine realization of the topology file — one
// Poisson spout per operator with an external rate plus the live bolts —
// as `supervise` and each `schedule` tenant declare it.
func liveTopology(tf topoFile, tasks int, seed int64) func(*engine.TopologyBuilder) {
	return func(b *engine.TopologyBuilder) {
		node.AddOperators(b, tf, tasks, seed)
		node.AddSources(b, tf, seed)
	}
}

func secondsDuration(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}
