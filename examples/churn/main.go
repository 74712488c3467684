// Machine-failure and churn demo, live: two supervised topologies share
// one machine pool through the cluster Scheduler, a machine crashes
// mid-run and an executor of one topology is killed outright — and the
// whole stack survives: the scheduler re-arbitrates the leases against
// the surviving capacity out of band (slots-lost attribution, floors
// intact), the affected supervisor vacates the lost slots at its next
// tick (a SlotsLost event, not a preemption), the engine replays the
// crashed executor's backlog onto a fresh replacement so no tuple is
// lost, and when the machine recovers the standing demands re-claim the
// capacity.
//
// The cast mirrors examples/multitenant: two identical extract -> match
// pipelines on a pool of 3 machines x 3 slots —
//
//   - "analytics" (priority 0, weight 2) carries a steady 140 tuples/s
//     and settles at 6 slots, floor 4: the two slots above its floor are
//     what the crash takes;
//   - "checkout" (priority 1) idles at 30 tuples/s on 2 slots, its floor.
//
// Killing one machine drops the capacity from 9 to 6 — exactly the two
// floors — so analytics must shed its two comfort slots the moment the
// crash lands, and reclaim them the moment the machine recovers.
//
// Run:
//
//	go run ./examples/churn
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	drs "github.com/drs-repro/drs"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/node"
	"github.com/drs-repro/drs/internal/topology"
)

// Demo parameters: millisecond-scale services keep the run under a minute
// of wall time while preserving the failover dynamics.
const (
	muExtract = 100.0 // tuples/s one extract executor serves
	muMatch   = 80.0  // tuples/s one match executor serves

	analyticsTmax = 0.033 // seconds
	checkoutTmax  = 0.090 // seconds

	analyticsLoad = 140.0 // analytics' steady arrivals
	checkoutLoad  = 30.0  // checkout's steady arrivals

	settle   = 14 * time.Second // both tenants converge
	outage   = 12 * time.Second // one machine down
	recovery = 12 * time.Second // machine back; slots must return
)

// tenant bundles one supervised pipeline and its lease.
type tenant struct {
	name string
	*node.Tenant
	lease *drs.Tenant
}

// startTenant registers one extract -> match pipeline with the scheduler
// and builds its supervised run. floor is the preemption floor (size it
// at the pipeline's stable minimum); alloc is the starting executor
// split, which also fixes the initial grant.
func startTenant(sched *drs.Scheduler, name string, prio int, weight, tmax, rate float64,
	floor int, alloc map[string]int, seed int64) (*tenant, error) {
	pipeline := topology.File{
		Operators: []topology.FileOperator{
			{Name: "extract", ServiceRate: muExtract, ExternalRate: rate},
			{Name: "match", ServiceRate: muMatch},
		},
		Edges: []topology.FileEdge{{From: "extract", To: "match", Selectivity: 1}},
	}
	lease, err := sched.Register(drs.TenantConfig{
		Name: name, Weight: weight, Priority: prio, MinSlots: floor, InitialSlots: alloc["extract"] + alloc["match"],
	})
	if err != nil {
		return nil, err
	}
	t, err := node.NewTenant(node.TenantConfig{
		Name: name,
		Build: func(b *engine.TopologyBuilder) {
			// 9 tasks per bolt: the whole pool (3 machines x 3 slots) could in
			// principle land on one operator.
			node.AddOperators(b, pipeline, 9, 1)
			node.AddSources(b, pipeline, seed)
		},
		Alloc: alloc,
		Controller: core.ControllerConfig{
			Mode: core.ModeMinResource, Tmax: tmax, ScaleInSlack: 0.25, MaxScaleInUtilization: 0.9,
		},
		Pool:     lease,
		Interval: time.Second,
		Cooldown: 3 * time.Second,
		Logger:   node.Logger(false),
	})
	if err != nil {
		return nil, err
	}
	return &tenant{name: name, Tenant: t, lease: lease}, nil
}

func main() {
	pool, err := drs.NewClusterPool(drs.ClusterPoolConfig{
		SlotsPerMachine: 3,
		MaxMachines:     3,
		Costs: drs.ClusterCostModel{
			Rebalance:        200 * time.Millisecond,
			MachineColdStart: 500 * time.Millisecond,
			MachineRelease:   200 * time.Millisecond,
		},
	}, 3)
	if err != nil {
		log.Fatal(err)
	}
	sched, err := drs.NewScheduler(drs.SchedulerConfig{Pool: pool, CostWindow: 20 * time.Second})
	if err != nil {
		log.Fatal(err)
	}

	analytics, err := startTenant(sched, "analytics", 0, 2, analyticsTmax, analyticsLoad,
		4, map[string]int{"extract": 3, "match": 3}, 7)
	if err != nil {
		log.Fatal(err)
	}
	checkout, err := startTenant(sched, "checkout", 1, 1, checkoutTmax, checkoutLoad,
		2, map[string]int{"extract": 1, "match": 1}, 11)
	if err != nil {
		log.Fatal(err)
	}
	tenants := []*tenant{analytics, checkout}
	for _, t := range tenants {
		if err := t.Start(); err != nil {
			log.Fatal(err)
		}
	}
	st := sched.State()
	fmt.Printf("pool: %d machines, %d slots; analytics floor 4, checkout floor 2\n\n", st.Machines, st.Capacity)

	start := time.Now()
	doubleLeased := false
	report := func(until time.Duration) {
		for time.Since(start) < until {
			time.Sleep(2 * time.Second)
			st := sched.State()
			if st.Leased > st.Capacity {
				doubleLeased = true
			}
			line := fmt.Sprintf("  t=%4.1fs capacity=%-2d", time.Since(start).Seconds(), st.Capacity)
			for _, t := range tenants {
				line += fmt.Sprintf("  %s: %d slots (lost %d)", t.name, t.lease.Kmax(), t.lease.LostSlots())
			}
			fmt.Println(line)
		}
	}

	fmt.Println("phase 1: both tenants settle")
	report(settle)

	// Pick the machine hosting the most analytics slots and kill it; at
	// the same time crash one of analytics' extract executors outright.
	victim, worst := 0, -1
	for id, n := range analytics.lease.Placement() {
		if n > worst {
			victim, worst = id, n
		}
	}
	fmt.Printf("\nphase 2: machine %d crashes (capacity drops to the floors) + one extract executor killed\n", victim)
	if err := sched.FailMachine(victim); err != nil {
		log.Fatal(err)
	}
	replayed, err := analytics.Run.FailExecutor("extract", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  executor crash: %d backlog tuples replayed onto the replacement\n", replayed)
	report(settle + outage)

	fmt.Printf("\nphase 3: machine %d recovers — the shed slots must return\n", victim)
	if err := sched.RecoverMachine(victim); err != nil {
		log.Fatal(err)
	}
	report(settle + outage + recovery)

	for _, t := range tenants {
		t.Sup.Stop()
	}
	// Stop drains in-flight trees; a nil error is the zero-lost proof —
	// every external tuple, the replayed backlog included, completed.
	lost := false
	for _, t := range tenants {
		if err := t.Run.Stop(); err != nil {
			fmt.Printf("  %s: stop: %v\n", t.name, err)
			lost = true
		}
	}

	fmt.Println("\nscheduler history:")
	sawSlotsLost, sawRecover := false, false
	for _, ev := range sched.History() {
		fmt.Printf("  %s\n", ev)
		switch ev.Kind {
		case "slots-lost":
			sawSlotsLost = true
		case "machine-recover":
			sawRecover = true
		}
	}
	supSlotsLost := false
	for _, ev := range analytics.Sup.History() {
		if ev.SlotsLost && ev.Applied {
			supSlotsLost = true
		}
	}
	fmt.Printf("\nanalytics: lost-to-failure=%d, executor crashes=%d, tuples replayed=%d\n",
		analytics.lease.LostSlots(), analytics.Run.ExecutorFailures(), analytics.Run.Replayed())
	fmt.Printf("slots-lost arbitration: %v; supervisor SlotsLost re-fit: %v; machine recovered: %v\n",
		sawSlotsLost, supSlotsLost, sawRecover)
	fmt.Printf("double-leased: %v; tuples lost: %v; final grants: analytics=%d checkout=%d of %d\n",
		doubleLeased, lost, analytics.lease.Kmax(), checkout.lease.Kmax(), sched.State().Capacity)
	if doubleLeased || lost || !sawSlotsLost || !supSlotsLost || !sawRecover {
		os.Exit(1)
	}
}
