package experiments

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/loop"
	"github.com/drs-repro/drs/internal/obs"
	"github.com/drs-repro/drs/internal/scenario"
	"github.com/drs-repro/drs/internal/sim"
	"github.com/drs-repro/drs/internal/stats"
)

// arc.go is the one place a supervised tenant is wired to a leased pool
// on a virtual clock. The multi-tenant experiments (contention, churn,
// overload, chaos) are each a script over this harness: they choose the
// pool shape, the tenants' traffic and the events, and read the arc back
// out of the per-round callback.

// arcInterval is the control period of every arc, in simulated seconds:
// one measurement pull and one supervisor round per interval.
const arcInterval = 10.0

// twoStageParams fixes one tenant chain's model constants — the arcs share
// the tenant scaffolding but differ in service law and thresholds.
type twoStageParams struct {
	// service is the per-tuple service time of both stages.
	service stats.Dist
	// tmax and slack parameterize the tenant's controller.
	tmax, slack float64
}

// arcTenant bundles one tenant's lease, simulator and supervisor.
type arcTenant struct {
	lease *cluster.Tenant
	s     *sim.Sim
	sup   *loop.Supervisor
}

// dropped sums the tenant's queue drops over both stages.
func (t *arcTenant) dropped() (n int64) {
	for _, d := range t.s.Dropped() {
		n += d
	}
	return n
}

// arc is one scripted run: N supervised two-stage tenants leasing slots
// from one machine pool through the cluster Scheduler, stepped in lock
// step on a shared virtual clock.
type arc struct {
	// name labels errors ("chaos: ...", "experiments: chaos run: ...").
	name     string
	pool     *cluster.Pool
	sched    *cluster.Scheduler
	clock    *simClock
	failures *loopFailures
	dlog     *obs.Log
	// tenants in registration order — also the order inside every round.
	tenants []*arcTenant
	// events is the time-ordered script run fires; applied logs each one
	// as resolved at fire time.
	events  []scenario.Event
	applied []string
	// killedOf and stragglerOf map a nominal event machine to the actual
	// pool machine its opening event resolved to, so the closing event
	// (recover, straggler-off) targets the same machine.
	killedOf, stragglerOf map[int]int
	// maxOver is the worst Leased − Capacity over every round (> 0 means a
	// slot double-leased); placementViolations counts rounds whose slot →
	// machine mapping was inconsistent.
	maxOver, placementViolations int
}

// newArc builds the shared substrate: a pool of up to maxMachines machines
// of slotsPerMachine slots (one live at the start) under the measured cost
// model, and its scheduler on the arc's virtual clock. A non-nil dlog
// receives the scheduler's and every tenant supervisor's decisions.
func newArc(name string, slotsPerMachine, maxMachines int, dlog *obs.Log) (*arc, error) {
	pool, err := cluster.NewPool(cluster.PoolConfig{
		SlotsPerMachine: slotsPerMachine,
		MaxMachines:     maxMachines,
		Costs: cluster.CostModel{
			Rebalance:        3 * time.Second,
			MachineColdStart: 4777 * time.Millisecond,
			MachineRelease:   1113 * time.Millisecond,
		},
	}, 1)
	if err != nil {
		return nil, err
	}
	clock := &simClock{}
	sched, err := cluster.NewScheduler(cluster.SchedulerConfig{Pool: pool, Clock: clock, DecisionLog: dlog})
	if err != nil {
		return nil, err
	}
	return &arc{
		name: name, pool: pool, sched: sched, clock: clock,
		failures: &loopFailures{}, dlog: dlog,
		killedOf: make(map[int]int), stragglerOf: make(map[int]int),
	}, nil
}

// tenant registers a lease and starts one supervised two-stage tenant
// against it: a selectivity-1 chain fed by sources (all on stage 1; each
// may carry an admission hook), starting from an even split of the
// registration grant.
func (a *arc) tenant(lc cluster.TenantConfig, p twoStageParams, seed uint64, sources ...sim.SourceSpec) (*arcTenant, error) {
	lease, err := a.sched.Register(lc)
	if err != nil {
		return nil, err
	}
	emit, err := sim.NewFractionalEmission(1)
	if err != nil {
		return nil, err
	}
	names := []string{"stage1", "stage2"}
	s, err := sim.New(sim.Config{
		Operators: []sim.OperatorSpec{
			{Name: names[0], Service: p.service},
			{Name: names[1], Service: p.service},
		},
		Sources: sources,
		Edges:   []sim.EdgeSpec{{From: 0, To: 1, Emit: emit}},
		Alloc:   []int{lc.InitialSlots / 2, lc.InitialSlots / 2},
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	s.EnableSeries(60)
	// Slots are granted individually by the scheduler — machine
	// quantization happens below the leases, not per tenant.
	ctrl, err := core.NewController(core.ControllerConfig{
		Mode:         core.ModeMinResource,
		Tmax:         p.tmax,
		MinGain:      0.05,
		ScaleInSlack: p.slack,
		// 0.6 pins the scale-in floor at the designed steady-state sizes:
		// the next-smaller allocation of every tenant runs a stage at
		// ρ > 0.6, so a noisy (optimistic) snapshot cannot shrink past it.
		MaxScaleInUtilization: 0.6,
	})
	if err != nil {
		return nil, err
	}
	sup, err := loop.New(loop.Config{
		Target:      simTarget{s: s, names: names},
		Operators:   names,
		Stepper:     ctrl,
		Pool:        lease,
		Interval:    secondsToDuration(arcInterval),
		Cooldown:    secondsToDuration(4 * arcInterval),
		Clock:       a.clock,
		Logger:      slog.New(a.failures),
		Tenant:      lc.Name,
		DecisionLog: a.dlog,
	})
	if err != nil {
		return nil, err
	}
	t := &arcTenant{lease: lease, s: s, sup: sup}
	a.tenants = append(a.tenants, t)
	return t, nil
}

// arcRound is what the per-round callback sees after the supervisors ran.
type arcRound struct {
	// t is the round's simulated time, st the arbitration state at it.
	t  float64
	st cluster.SchedulerState
	// over is this round's Leased − Capacity; badPlacement reports an
	// overcommitted machine or placed ≠ leased totals.
	over         int
	badPlacement bool
}

// run steps the arc to duration. Every round: advance each tenant's
// simulator, set the clock, fire the due events, let each supervisor
// measure (before enableAt) or decide (from it on), audit the leases and
// the placement, then hand the round to the driver's callback.
func (a *arc) run(duration, enableAt float64, round func(arcRound)) error {
	next := 0
	for t := arcInterval; t <= duration+1e-9; t += arcInterval {
		for _, tn := range a.tenants {
			tn.s.RunUntil(t)
		}
		a.clock.set(t)
		for ; next < len(a.events) && a.events[next].At <= t+1e-9; next++ {
			line, err := a.apply(a.events[next])
			if err != nil {
				return fmt.Errorf("%s: %w", a.name, err)
			}
			a.applied = append(a.applied, line)
		}
		for _, tn := range a.tenants {
			if t < enableAt {
				tn.sup.Observe() // measure, but leave the controller disabled
			} else {
				tn.sup.Tick()
			}
		}
		r := arcRound{t: t, st: a.sched.State()}
		r.over = r.st.Leased - r.st.Capacity
		a.maxOver = max(a.maxOver, r.over)
		placed := 0
		for _, row := range r.st.Placement {
			if row.Reserved+row.Leased > row.Slots {
				r.badPlacement = true
			}
			placed += row.Leased
		}
		if placed != r.st.Leased {
			r.badPlacement = true
		}
		if r.badPlacement {
			a.placementViolations++
		}
		round(r)
	}
	if err := a.failures.err(); err != nil {
		return fmt.Errorf("experiments: %s run: %w", a.name, err)
	}
	return nil
}

// apply fires one scripted event and returns its resolved log line.
// Machine-targeted events resolve their victims at fire time — the set of
// live machines varies as the demand-driven negotiation grows and shrinks
// the pool (IDs are never reused, but old ones retire and new ones
// appear), so an event's Machine is a nominal key: a fail takes the newest
// live machine, a straggler mark the oldest healthy one, a decommission
// fails the newest live machine and returns it to the provider, and a
// recovery or straggler clear takes whatever its opening event took.
func (a *arc) apply(ev scenario.Event) (string, error) {
	newestLive := func() (int, error) {
		live := a.pool.LiveMachines()
		if len(live) == 0 {
			return 0, fmt.Errorf("no live machine left at t=%.0fs", ev.At)
		}
		return live[len(live)-1].ID, nil
	}
	switch ev.Kind {
	case scenario.KindFail:
		victim, err := newestLive()
		if err != nil {
			return "", err
		}
		if err := a.sched.FailMachine(victim); err != nil {
			return "", fmt.Errorf("killing machine %d: %w", victim, err)
		}
		a.killedOf[ev.Machine] = victim
		return fmt.Sprintf("t=%5.0fs fail machine %d", ev.At, victim), nil
	case scenario.KindRecover:
		id, ok := a.killedOf[ev.Machine]
		if !ok {
			return "", fmt.Errorf("recovery at t=%.0fs pairs with no applied failure", ev.At)
		}
		delete(a.killedOf, ev.Machine)
		if err := a.sched.RecoverMachine(id); err != nil {
			return "", fmt.Errorf("recovering machine %d: %w", id, err)
		}
		return fmt.Sprintf("t=%5.0fs recover machine %d", ev.At, id), nil
	case scenario.KindStragglerOn:
		victim := -1
		for _, m := range a.pool.LiveMachines() {
			if !m.Straggler {
				victim = m.ID
				break
			}
		}
		if victim < 0 {
			return "", fmt.Errorf("no healthy machine to mark straggler at t=%.0fs", ev.At)
		}
		if err := a.sched.MarkStraggler(victim, true); err != nil {
			return "", fmt.Errorf("marking straggler %d: %w", victim, err)
		}
		a.stragglerOf[ev.Machine] = victim
		return fmt.Sprintf("t=%5.0fs straggler-on machine %d", ev.At, victim), nil
	case scenario.KindStragglerOff:
		id, ok := a.stragglerOf[ev.Machine]
		if !ok {
			return "", fmt.Errorf("straggler clear at t=%.0fs pairs with no applied mark", ev.At)
		}
		delete(a.stragglerOf, ev.Machine)
		if err := a.sched.MarkStraggler(id, false); err != nil {
			return "", fmt.Errorf("clearing straggler %d: %w", id, err)
		}
		return fmt.Sprintf("t=%5.0fs straggler-off machine %d", ev.At, id), nil
	case scenario.KindDecommission:
		victim, err := newestLive()
		if err != nil {
			return "", err
		}
		// Decommission takes only failed machines (live ones leave through
		// scale-in), so a scheduled retirement is a fail + return-to-provider.
		if err := a.sched.FailMachine(victim); err != nil {
			return "", fmt.Errorf("failing machine %d for decommission: %w", victim, err)
		}
		if err := a.pool.Decommission(victim); err != nil {
			return "", fmt.Errorf("decommissioning machine %d: %w", victim, err)
		}
		return fmt.Sprintf("t=%5.0fs decommission machine %d", ev.At, victim), nil
	case scenario.KindPriority:
		for _, tn := range a.tenants {
			if tn.lease.Name() != ev.Tenant {
				continue
			}
			if err := tn.lease.SetPriority(ev.Priority); err != nil {
				return "", fmt.Errorf("setting %s priority: %w", ev.Tenant, err)
			}
			return fmt.Sprintf("t=%5.0fs priority %s=%d", ev.At, ev.Tenant, ev.Priority), nil
		}
		return "", fmt.Errorf("priority change targets unknown tenant %q", ev.Tenant)
	case scenario.KindSurgeStart, scenario.KindSurgeEnd:
		// Informational: the arrival envelope already carries the rate
		// change; the marker only segments the phase audit.
		return fmt.Sprintf("t=%5.0fs %s %s x%.1f", ev.At, ev.Kind, ev.Tenant, ev.Factor), nil
	default:
		return "", fmt.Errorf("unknown event kind %v", ev.Kind)
	}
}

// printSojournCurve renders one per-minute E[T] curve, a dash for minutes
// without completions.
func printSojournCurve(w io.Writer, name string, series []sim.SeriesPoint) {
	fmt.Fprintf(w, "%s E[T] by minute (ms): ", name)
	for _, pt := range series {
		if math.IsNaN(pt.MeanSojourn) {
			fmt.Fprint(w, "    - ")
			continue
		}
		fmt.Fprintf(w, "%5.0f ", pt.MeanSojourn*1e3)
	}
	fmt.Fprintln(w)
}

// printTransitions renders one tenant's applied decisions, forced shrinks
// marked by cause.
func printTransitions(w io.Writer, name string, trs []Transition) {
	for _, tr := range trs {
		mark := ""
		switch {
		case tr.SlotsLost:
			mark = " [slots-lost]"
		case tr.Preempted:
			mark = " [preempted]"
		}
		fmt.Fprintf(w, "  %-6s t=%5.0fs %-10s -> %s, Kmax=%d (pause %.1fs)%s: %s\n",
			name, tr.AtSeconds, tr.Action, allocString(tr.Alloc), tr.Kmax, tr.PauseSeconds, mark, tr.Reason)
	}
}

// printSchedulerHistory renders the cluster-wide decision log.
func printSchedulerHistory(w io.Writer, history []cluster.SchedulerEvent) {
	fmt.Fprintln(w, "scheduler history:")
	for _, ev := range history {
		fmt.Fprintf(w, "  t=%5.0fs %s\n", ev.At.Sub(simEpoch).Seconds(), ev)
	}
}
