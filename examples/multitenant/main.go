// Multi-tenant scheduling demo, live: two supervised topologies share one
// machine pool through the cluster Scheduler, and a load surge on the
// high-priority tenant drags slots away from the low-priority one — then
// hands them back when the surge passes.
//
// Two identical two-operator pipelines (extract -> match, exponential
// service times) run as tenants of one pool of 3 machines x 3 slots:
//
//   - "analytics" (priority 0, weight 2, Tmax 33 ms) carries a steady
//     140 tuples/s. Program (6) sizes it at 6 slots, (3:3) — two above
//     its stable minimum of 4, which is also its preemption floor. Those
//     two slots are what the arbiter can move.
//   - "checkout" (priority 1, Tmax 90 ms) starts at a light 30 tuples/s
//     (2 slots), surges to 150/s mid-run (needs 5), then drops back.
//
// During the surge, checkout's supervisor measures the Tmax violation and
// requests more slots; the 9-slot pool has only one free, so the
// scheduler — priority plus a cleared Appendix-B cost/benefit guard —
// preempts analytics down to its floor. Analytics' supervisor vacates the
// lost slots gracefully at its next tick (it runs degraded but stable,
// and keeps bidding). When the surge ends, checkout scales in and
// analytics reclaims its slots.
//
// Run:
//
//	go run ./examples/multitenant
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
// of wall time while preserving the arbitration dynamics.
const (
	muExtract = 100.0 // tuples/s one extract executor serves
	muMatch   = 80.0  // tuples/s one match executor serves

	checkoutTmax  = 0.090 // the high-priority tenant's target, seconds
	analyticsTmax = 0.033 // the low-priority tenant's target, seconds

	checkoutLow   = 30.0  // checkout arrivals outside the surge
	checkoutHigh  = 150.0 // surge arrivals — needs most of the pool
	analyticsLoad = 140.0 // analytics' steady arrivals

	phase1 = 12 * time.Second // both settle
	phase2 = 20 * time.Second // surge: scheduler must shift slots
	phase3 = 16 * time.Second // surge over: slots must come back
)

// tenant bundles one supervised pipeline, its load knob and its lease.
type tenant struct {
	name string
	*node.Tenant
	rate  *node.Rate
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
	var rates map[string]*node.Rate
	t, err := node.NewTenant(node.TenantConfig{
		Name: name,
		Build: func(b *engine.TopologyBuilder) {
			// 9 tasks per bolt: the whole pool (3 machines x 3 slots) could in
			// principle land on one operator.
			node.AddOperators(b, pipeline, 9, 1)
			rates = node.AddSources(b, pipeline, seed)
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
	return &tenant{name: name, Tenant: t, rate: rates["extract"], lease: lease}, nil
}

func main() {
	pool, err := drs.NewClusterPool(drs.ClusterPoolConfig{
		SlotsPerMachine: 3,
		MaxMachines:     3, // 9 slots: one short of both tenants' peak demands
		Costs: drs.ClusterCostModel{
			Rebalance:        200 * time.Millisecond,
			MachineColdStart: 500 * time.Millisecond,
			MachineRelease:   200 * time.Millisecond,
		},
	}, 1)
	if err != nil {
		log.Fatal(err)
	}
	sched, err := drs.NewScheduler(drs.SchedulerConfig{
		Pool:       pool,
		CostWindow: 20 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}

	analytics, err := startTenant(sched, "analytics", 0, 2, analyticsTmax, analyticsLoad,
		4, map[string]int{"extract": 3, "match": 3}, 7)
	if err != nil {
		log.Fatal(err)
	}
	defer analytics.Stop()
	checkout, err := startTenant(sched, "checkout", 1, 1, checkoutTmax, checkoutLow,
		2, map[string]int{"extract": 1, "match": 1}, 11)
	if err != nil {
		log.Fatal(err)
	}
	defer checkout.Stop()

	for _, t := range []*tenant{analytics, checkout} {
		if err := t.Start(); err != nil {
			log.Fatal(err)
		}
	}
	st := sched.State()
	fmt.Printf("pool: %d machines, %d slots; checkout Tmax %.0f ms (priority 1), analytics Tmax %.0f ms (priority 0)\n\n",
		st.Machines, st.Capacity, checkoutTmax*1e3, analyticsTmax*1e3)
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
			for _, t := range []*tenant{checkout, analytics} {
				if snap, ok := t.Sup.LastSnapshot(); ok {
					line += fmt.Sprintf("  %s: %d slots E[T]=%5.1fms", t.name, t.lease.Kmax(), snap.MeasuredSojourn*1e3)
				} else {
					line += fmt.Sprintf("  %s: %d slots (warming)", t.name, t.lease.Kmax())
				}
			}
			fmt.Println(line)
		}
	}

	fmt.Printf("phase 1: checkout %.0f/s, analytics %.0f/s — both settle\n", checkoutLow, analyticsLoad)
	report(phase1)
	fmt.Printf("\nphase 2: checkout surges to %.0f/s — the arbiter must shift slots\n", checkoutHigh)
	checkout.rate.Set(checkoutHigh)
	report(phase1 + phase2)
	fmt.Printf("\nphase 3: checkout drops back to %.0f/s — slots must return\n", checkoutLow)
	checkout.rate.Set(checkoutLow)
	report(phase1 + phase2 + phase3)

	for _, t := range []*tenant{analytics, checkout} {
		t.Sup.Stop()
	}
	fmt.Println("\nscheduler history:")
	preempted := false
	for _, ev := range sched.History() {
		fmt.Printf("  %s\n", ev)
		if ev.Kind == "preempt" {
			preempted = true
		}
	}
	checkoutPeak := 0
	for _, ev := range checkout.Sup.History() {
		if ev.Applied && ev.Kmax > checkoutPeak {
			checkoutPeak = ev.Kmax
		}
	}
	fmt.Printf("\ncheckout peak grant: %d slots; preemption fired: %v; double-leased: %v\n",
		checkoutPeak, preempted, doubleLeased)
	fmt.Printf("final grants: checkout=%d analytics=%d of %d\n",
		checkout.lease.Kmax(), analytics.lease.Kmax(), sched.State().Capacity)
	if doubleLeased || checkoutPeak <= 3 {
		os.Exit(1)
	}
}
