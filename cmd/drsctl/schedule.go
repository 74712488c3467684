package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/node"
)

// cmdSchedule runs topology files live on ONE shared machine pool: each
// topology becomes a tenant of the cluster Scheduler, supervised by its own
// DRS control loop on its lease, and the scheduler arbitrates slot grants
// among them — weighted max-min fairness over free capacity, preemption
// toward a violating higher-priority tenant when the pool is maxed out.
// With one topology it is the closed §IV loop as a CLI: measure,
// re-solve, rebalance. -tmax-ms runs Program (6), the grant following
// demand; -kmax runs Program (4) on a fixed grant of that many slots.
func cmdSchedule(args []string) error {
	fs := flag.NewFlagSet("schedule", flag.ContinueOnError)
	topos := fs.String("topologies", "", "comma-separated topology JSON files (required)")
	kmaxList := fs.String("kmax", "", "fixed processor budget(s), Program (4): one value for all tenants, or one per topology")
	tmaxMS := fs.String("tmax-ms", "", "latency target(s) in ms, Program (6): one value for all tenants, or one per topology")
	weights := fs.String("weights", "1", "max-min weight(s): one value or one per topology")
	priorities := fs.String("priorities", "", "preemption priorities: one value or one per topology (default: file order, first lowest)")
	minSlots := fs.String("min-slots", "", "preemption floor(s); default: one slot per operator, or the whole -kmax grant")
	duration := fs.Float64("duration", 30, "wall-clock seconds to run")
	intervalMS := fs.Int("interval-ms", 1000, "measurement cadence Tm in ms")
	slots := fs.Int("slots", 4, "executor slots per machine")
	maxMachines := fs.Int("max-machines", 8, "machine cap the negotiator may provision")
	seed := fs.Int64("seed", 1, "workload seed")
	failAfter := fs.Float64("fail-after", 0, "kill machines this many seconds into the run (0 disables)")
	failCount := fs.Int("fail-machines", 1, "how many machines to kill at -fail-after")
	failDown := fs.Float64("fail-down", 10, "outage length in seconds before the killed machines recover (0: they stay down)")
	verbose := fs.Bool("v", false, "log every loop event")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *topos == "":
		return fmt.Errorf("-topologies is required (e.g. -topologies api.json,batch.json)")
	case (*kmaxList == "") == (*tmaxMS == ""):
		return fmt.Errorf("pass exactly one of -kmax or -tmax-ms")
	case !positive(*duration):
		return fmt.Errorf("-duration must be positive and finite, got %g", *duration)
	case *intervalMS <= 0:
		return fmt.Errorf("-interval-ms must be positive, got %d", *intervalMS)
	case *slots < 1:
		return fmt.Errorf("-slots must be at least 1, got %d", *slots)
	case *maxMachines < 1:
		return fmt.Errorf("-max-machines must be at least 1, got %d", *maxMachines)
	case !(*failAfter == 0 || *failAfter > 0 && *failAfter < *duration):
		return fmt.Errorf("-fail-after %g must be 0 (no churn) or inside -duration %g", *failAfter, *duration)
	case *failCount < 1:
		return fmt.Errorf("-fail-machines must be at least 1, got %d", *failCount)
	case !nonNegative(*failDown):
		return fmt.Errorf("-fail-down must be non-negative and finite, got %g", *failDown)
	}
	paths := strings.Split(*topos, ",")
	n := len(paths)
	var kmaxes []int
	var tmaxes []float64
	var err error
	if *kmaxList != "" {
		kmaxes, err = parseList(*kmaxList, n, "kmax", strconv.Atoi)
	} else {
		tmaxes, err = parseList(*tmaxMS, n, "tmax-ms", parseFloat)
	}
	if err != nil {
		return err
	}
	ws, err := parseList(*weights, n, "weights", parseFloat)
	if err != nil {
		return err
	}
	prios := make([]int, n)
	for i := range prios {
		prios[i] = i
	}
	if *priorities != "" {
		if prios, err = parseList(*priorities, n, "priorities", strconv.Atoi); err != nil {
			return err
		}
	}
	var floors []int
	if *minSlots != "" {
		if floors, err = parseList(*minSlots, n, "min-slots", strconv.Atoi); err != nil {
			return err
		}
	}

	// Tasks cap executor parallelism per operator, and the arbiter may
	// grant one tenant — and its optimizer one operator — the whole pool.
	tasks := *slots * *maxMachines
	// The floors must fit the pool together, and a -kmax tenant's floor its
	// fixed grant, which never grows; -kmax tenants lease their whole
	// budgets up front, so the budgets must fit the pool together too.
	held := 0
	for i, f := range floors {
		if f < 0 || f > tasks {
			return fmt.Errorf("-min-slots %d is outside [0, %d], the pool's slots (-slots × -max-machines)", f, tasks)
		}
		if kmaxes != nil && f > kmaxes[i] {
			return fmt.Errorf("-min-slots %d is above its -kmax %d, a fixed grant that never grows", f, kmaxes[i])
		}
		held += f
	}
	if held > tasks {
		return fmt.Errorf("-min-slots floors hold %d slots together, more than the pool's %d (-slots × -max-machines)", held, tasks)
	}
	leased := 0
	for _, k := range kmaxes {
		leased += k
	}
	if leased > tasks {
		return fmt.Errorf("-kmax leases %d slots up front, more than the pool's %d (-slots × -max-machines)", leased, tasks)
	}
	if p := slices.Min(prios); p < 0 {
		return fmt.Errorf("-priorities must not be negative, got %d", p)
	}

	pool, err := cluster.NewPool(cluster.PoolConfig{
		SlotsPerMachine: *slots,
		MaxMachines:     *maxMachines,
		Costs:           liveCosts,
	}, 1)
	if err != nil {
		return err
	}
	sched, err := cluster.NewScheduler(cluster.SchedulerConfig{
		Pool:       pool,
		CostWindow: 30 * time.Second,
	})
	if err != nil {
		return err
	}
	logger := node.Logger(*verbose)

	var runs []*node.Tenant
	stopAll := func(deadline time.Time) {
		for _, r := range runs {
			_ = r.Stop(deadline)
		}
	}
	defer stopAll(time.Time{}) // an early return strands whatever is in flight
	var mode core.Mode
	for i, path := range paths {
		_, tf, err := loadTopology(strings.TrimSpace(path))
		if err != nil {
			return fmt.Errorf("topology %d (%s): %w", i, path, err)
		}
		name := tenantName(path, i)
		// One executor per operator to start; a -kmax tenant leases its
		// whole budget up front, as its floor, so the grant stays fixed.
		initial := len(tf.Operators)
		var ctrl core.ControllerConfig
		if kmaxes != nil {
			if kmaxes[i] < initial {
				return fmt.Errorf("%s: -kmax %d is below its %d operators", name, kmaxes[i], initial)
			}
			initial = kmaxes[i]
			ctrl = core.ControllerConfig{Mode: core.ModeMinLatency, Kmax: initial}
		} else {
			ctrl = core.ControllerConfig{Mode: core.ModeMinResource, Tmax: tmaxes[i] / 1e3}
		}
		mode = ctrl.Mode
		floor := initial
		if floors != nil {
			floor = floors[i]
		}
		lease, err := sched.Register(cluster.TenantConfig{
			Name:         name,
			Weight:       ws[i],
			Priority:     prios[i],
			MinSlots:     floor,
			InitialSlots: initial,
		})
		if err != nil {
			return fmt.Errorf("registering %s: %w", name, err)
		}
		tenantSeed := *seed + int64(i)*100003
		t, err := node.NewTenant(node.TenantConfig{
			Name: name,
			Build: func(b *engine.TopologyBuilder) {
				node.AddOperators(b, tf, tasks, tenantSeed)
				node.AddSources(b, tf, tenantSeed)
			},
			Controller: ctrl,
			Pool:       lease,
			Interval:   time.Duration(*intervalMS) * time.Millisecond,
			Logger:     logger,
		})
		if err != nil {
			return fmt.Errorf("starting %s: %w", name, err)
		}
		runs = append(runs, t)
	}

	st := sched.State()
	fmt.Printf("scheduling %d topologies on one pool for %.0fs (Tm = %dms, %s): machines=%d capacity=%d\n",
		n, *duration, *intervalMS, mode, st.Machines, st.Capacity)
	for _, ts := range st.Tenants {
		fmt.Printf("  %-16s weight=%g priority=%d floor=%d granted=%d\n",
			ts.Name, ts.Weight, ts.Priority, ts.MinSlots, ts.Granted)
	}
	for _, r := range runs {
		if err := r.Start(); err != nil {
			return err
		}
	}
	// The optional machine-churn injection: kill the highest-ID live
	// machines mid-run and recover them after the outage, watching the
	// scheduler re-arbitrate the leases out of band both times.
	end := time.Now().Add(secondsDuration(*duration))
	if *failAfter > 0 {
		time.Sleep(secondsDuration(*failAfter))
		live := pool.LiveMachines()
		live = live[max(0, len(live)-*failCount):]
		var victims []int
		for _, m := range live {
			if err := sched.FailMachine(m.ID); err != nil {
				fmt.Printf("  !! machine %d kill failed: %v\n", m.ID, err)
				continue
			}
			victims = append(victims, m.ID)
			fmt.Printf("  !! machine %d killed (capacity now %d)\n", m.ID, pool.Kmax())
		}
		if *failDown > 0 {
			// Clamp the outage inside the run: a -fail-down past the end
			// recovers at the end instead of extending the run.
			time.Sleep(min(secondsDuration(*failDown), time.Until(end)))
			for _, id := range victims {
				if err := sched.RecoverMachine(id); err != nil {
					fmt.Printf("  !! machine %d recovery failed: %v\n", id, err)
					continue
				}
				fmt.Printf("  !! machine %d recovered (capacity now %d)\n", id, pool.Kmax())
			}
		}
	}
	time.Sleep(time.Until(end))
	stopAll(end.Add(stopGrace))

	// The closing grant is the lease's, read after every loop stopped: the
	// last snapshot's Kmax lags an out-of-band re-grant (a recovered
	// machine) until the next measured round.
	st = sched.State()
	for i, r := range runs {
		r.WriteHistory(os.Stdout, st.Tenants[i].Name)
		if snap, ok := r.Sup.LastSnapshot(); ok {
			fmt.Printf("  final: lambda0 = %.2f tuples/s, measured E[T] = %.1f ms, granted = %d\n",
				snap.Lambda0, snap.MeasuredSojourn*1e3, st.Tenants[i].Granted)
		}
		started, completed, _ := r.Run.RootTotals()
		fmt.Printf("  stop: %d roots stranded at the deadline\n", started-completed)
	}
	fmt.Println("\nscheduler history:")
	for _, ev := range sched.History() {
		fmt.Printf("  %s\n", ev)
	}
	fmt.Printf("final: machines=%d capacity=%d leased=%d\n", st.Machines, st.Capacity, st.Leased)
	return nil
}

// stopGrace is how long schedule's tenants drain past -duration, on one
// deadline for all of them: a tenant still holding work then strands it
// and counts it, instead of running on through its backlog.
const stopGrace = time.Second

// tenantName derives a unique tenant name from a topology path.
func tenantName(path string, i int) string {
	base := path
	if idx := strings.LastIndexByte(base, '/'); idx >= 0 {
		base = base[idx+1:]
	}
	base = strings.TrimSuffix(base, ".json")
	if base == "" {
		base = "topology"
	}
	return fmt.Sprintf("%s-%d", base, i)
}

// parseList parses a comma list with parse (strconv.Atoi for integer
// flags, so a fractional or exponent entry is a flag error, not a silent
// truncation), broadcasting a single value to n.
func parseList[T any](s string, n int, flagName string, parse func(string) (T, error)) ([]T, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 1 && len(parts) != n {
		return nil, fmt.Errorf("-%s needs 1 or %d values, got %d", flagName, n, len(parts))
	}
	out := make([]T, n)
	for i := range out {
		p := parts[0]
		if len(parts) == n {
			p = parts[i]
		}
		v, err := parse(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("-%s entry %q: %w", flagName, p, err)
		}
		out[i] = v
	}
	return out, nil
}

// parseFloat parses an entry of the float lists, -tmax-ms and -weights,
// each of which wants a positive finite number.
func parseFloat(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && !positive(v) {
		return 0, fmt.Errorf("want a positive finite number, got %g", v)
	}
	return v, err
}

func secondsDuration(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}
