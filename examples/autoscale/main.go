// Autoscaling demo, live: the DRS Supervisor closes the paper's §IV
// control loop against the built-in goroutine engine under a shifting
// arrival rate.
//
// A two-operator pipeline (extract -> match, exponential service times)
// starts on one machine (Kmax = 3) under a light load that the small pool
// handles comfortably. A third of the way in, the arrival rate steps from
// 30 to 120 tuples/s — beyond what one extract executor can serve — and
// the measured sojourn blows through the 80 ms target. The supervisor's
// min-resource controller (Program (6)) detects the violation from live
// measurements, negotiates a second machine from the pool, rebalances onto
// it, and the measured sojourn returns under the target. When the load
// drops back, the scale-in hysteresis releases the machine again.
//
// Run:
//
//	go run ./examples/autoscale
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/loop"
	"github.com/drs-repro/drs/internal/node"
	"github.com/drs-repro/drs/internal/topology"
)

// Demo parameters: millisecond-scale services keep the whole run under a
// minute of wall time while preserving the paper's dynamics.
const (
	muExtract = 100.0 // tuples/s one extract executor serves (10 ms mean)
	muMatch   = 80.0  // tuples/s one match executor serves (12.5 ms mean)
	tmax      = 0.080 // the real-time constraint, seconds

	lowRate  = 30.0  // phase 1/3 arrivals, tuples/s
	highRate = 120.0 // phase 2 arrivals — saturates one extract executor

	phase1 = 15 * time.Second // low load, small pool
	phase2 = 20 * time.Second // step load: supervisor must scale out
	phase3 = 20 * time.Second // load drops: supervisor may scale in
)

// pipeline is extract -> match with exponential services — an M/M/k
// server per operator when run across k executors.
var pipeline = topology.File{
	Operators: []topology.FileOperator{
		{Name: "extract", ServiceRate: muExtract, ExternalRate: lowRate},
		{Name: "match", ServiceRate: muMatch},
	},
	Edges: []topology.FileEdge{{From: "extract", To: "match", Selectivity: 1}},
}

func main() {
	// The cluster: 4-slot machines, one slot reserved, scaled-down
	// transition costs so the pauses stay visible but short.
	pool, err := cluster.NewPool(cluster.PoolConfig{
		SlotsPerMachine: 4,
		ReservedSlots:   1,
		MaxMachines:     4,
		Costs: cluster.CostModel{
			Rebalance:        200 * time.Millisecond,
			MachineColdStart: 500 * time.Millisecond,
			MachineRelease:   200 * time.Millisecond,
		},
	}, 1) // one machine: Kmax = 3
	if err != nil {
		log.Fatal(err)
	}

	var rates map[string]*node.Rate
	t, err := node.NewTenant(node.TenantConfig{
		Build: func(b *engine.TopologyBuilder) {
			// 16 tasks per bolt: above the largest budget the pool can offer
			// (4 machines × 4 slots − 1 = 15), so the engine can absorb any
			// allocation the controller negotiates, even if a backlog-inflated
			// measurement concentrates the whole pool on one operator.
			node.AddOperators(b, pipeline, 16, 1)
			rates = node.AddSources(b, pipeline, 42)
		},
		Alloc: map[string]int{"extract": 1, "match": 2},
		Controller: core.ControllerConfig{
			Mode:                  core.ModeMinResource,
			Tmax:                  tmax,
			ScaleInSlack:          0.35,
			MaxScaleInUtilization: 0.9,
			SlotsPerMachine:       4,
			ReservedSlots:         1,
		},
		Pool:     pool,
		Interval: time.Second,
		Logger:   node.Logger(false),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer t.Stop()
	if err := t.Start(); err != nil {
		log.Fatal(err)
	}
	rate, sup, run := rates["extract"], t.Sup, t.Run

	fmt.Printf("target E[T] <= %.0f ms; machines=%d Kmax=%d alloc=%v\n\n",
		tmax*1e3, pool.Machines(), pool.Kmax(), run.Allocation())
	start := time.Now()

	fmt.Printf("phase 1: lambda0 = %.0f tuples/s\n", lowRate)
	reportLoop(sup, run, pool, start, phase1)

	fmt.Printf("\nphase 2: lambda0 steps to %.0f tuples/s\n", highRate)
	rate.Set(highRate)
	reportLoop(sup, run, pool, start, phase1+phase2)

	fmt.Printf("\nphase 3: lambda0 drops back to %.0f tuples/s\n", lowRate)
	rate.Set(lowRate)
	reportLoop(sup, run, pool, start, phase1+phase2+phase3)

	sup.Stop()
	fmt.Println("\ndecision history:")
	scaledOut := false
	for _, ev := range sup.History() {
		fmt.Printf("  t=%4.1fs %s\n", ev.At.Sub(start).Seconds(), ev)
		if ev.Action == core.ActionScaleOut && ev.Applied {
			scaledOut = true
		}
	}
	snap, ok := sup.LastSnapshot()
	converged := ok && snap.MeasuredSojourn > 0 && snap.MeasuredSojourn <= tmax
	if ok {
		fmt.Printf("\nfinal: machines=%d Kmax=%d alloc=%v measured E[T]=%.1f ms\n",
			pool.Machines(), pool.Kmax(), run.Allocation(), snap.MeasuredSojourn*1e3)
	} else {
		fmt.Println("\nfinal: no measurement snapshot was ever produced")
	}
	fmt.Printf("scaled out under load: %v; converged under target: %v\n", scaledOut, converged)
	if !scaledOut || !converged {
		os.Exit(1)
	}
}

// reportLoop prints the supervisor's live view every 2 s until the demo
// clock reaches until.
func reportLoop(sup *loop.Supervisor, run *engine.Run, pool *cluster.Pool, start time.Time, until time.Duration) {
	for time.Since(start) < until {
		time.Sleep(2 * time.Second)
		snap, ok := sup.LastSnapshot()
		if !ok {
			fmt.Printf("  t=%4.1fs warming up\n", time.Since(start).Seconds())
			continue
		}
		bar := int(snap.MeasuredSojourn * 250)
		if bar > 60 {
			bar = 60
		}
		fmt.Printf("  t=%4.1fs E[T]=%6.1f ms lambda0=%5.1f/s machines=%d alloc=%v %s\n",
			time.Since(start).Seconds(), snap.MeasuredSojourn*1e3, snap.Lambda0,
			pool.Machines(), run.Allocation(), barString(bar))
	}
}

func barString(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}
