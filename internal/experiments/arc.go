package experiments

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/ingest"
	"github.com/drs-repro/drs/internal/loop"
	"github.com/drs-repro/drs/internal/obs"
	"github.com/drs-repro/drs/internal/scenario"
	"github.com/drs-repro/drs/internal/sim"
	"github.com/drs-repro/drs/internal/stats"
)

// arc.go is the multi-tenant runner: the one place supervised tenants are
// wired to a leased pool on a virtual clock, stepped, audited and booked.
// The multi-tenant experiments (contention, churn, overload, chaos) are
// each a spec for it — the pool shape, the tenants' traffic and the
// events — plus the claims they derive from the Arc it returns.

// arcSource is one traffic source of an arc tenant.
type arcSource struct {
	// name labels the client behind the admission gate.
	name     string
	arrivals sim.ArrivalProcess
	// weight, when positive, puts the source behind the tenant's admission
	// gate: every round the DRS admission policy (ingest.PlanAdmission —
	// the same code the network gate runs) sizes what the provider cap
	// holds under Tmax and sheds the rest lowest-weight-first.
	weight float64
}

// arcTenantSpec is one supervised two-stage tenant: a selectivity-1 chain
// fed by sources (all on stage 1), both stages serving service per tuple,
// starting from an even split of the registration grant.
type arcTenantSpec struct {
	lease   cluster.TenantConfig
	service stats.Dist
	sources []arcSource
}

// expTenant is an ungated tenant with exponential service at rate mu per
// processor and a preemption floor, fed by one source.
func expTenant(name string, priority, floor, initial int, mu float64, arrivals sim.ArrivalProcess) arcTenantSpec {
	return arcTenantSpec{
		lease:   cluster.TenantConfig{Name: name, Priority: priority, MinSlots: floor, InitialSlots: initial},
		service: stats.Exponential{Rate: mu},
		sources: []arcSource{{arrivals: arrivals}},
	}
}

// step is a Poisson source at base tuples/s, multiplied by factor inside
// the timeline's load-step window.
func (tl timeline) step(base, factor float64) *sim.SteppedRate {
	return &sim.SteppedRate{Base: sim.PoissonArrivals{Rate: base}, Factor: factor, From: tl.stepFrom, Until: tl.stepUntil}
}

// arcSpec is one scripted run as data: N tenants leasing slots from one
// machine pool of up to maxMachines machines of slotsPerMachine slots (one
// live at the start) under the measured cost model, every tenant's
// controller in min-resource mode under tmax with scale-in slack, and the
// time-ordered infrastructure events.
type arcSpec struct {
	// name labels errors ("chaos: ...", "experiments: chaos run: ...").
	name                         string
	slotsPerMachine, maxMachines int
	tmax, slack                  float64
	tenants                      []arcTenantSpec
	events                       []scenario.Event
}

// ClientStats is one gated client's front-door books.
type ClientStats struct {
	// Name and Weight identify the client.
	Name   string
	Weight float64
	// Offered, Admitted and Shed are cumulative record counts.
	Offered, Admitted, Shed int64
	// ShedFraction is Shed/Offered.
	ShedFraction float64
}

// gateClient is one virtual-time traffic source behind the admission
// gate: the sim source's Admit hook applies the live gate's thinning
// verdict (obs.ThinAdmit), driven by the per-round plan.
type gateClient struct {
	ClientStats
	seq      uint64
	permille uint32
	// last is the previous replan round's reading.
	last ClientStats
}

// admit is the sim-side twin of ingest's Offer fast path: the same
// thinning verdict, minus the network.
func (c *gateClient) admit(float64) bool {
	c.Offered++
	if p := c.permille; p < 1000 {
		c.seq++
		if !obs.ThinAdmit(c.seq, int64(p)) {
			c.Shed++
			return false
		}
	}
	c.Admitted++
	return true
}

// GateRound is one replan round's front-door reading for one tenant: the
// plan put in force for the next round, and what its clients offered, got
// admitted and had shed since the previous one.
type GateRound struct {
	Plan ingest.Plan
	// PlannedAlloc and PlannedKmax are the allocation total and the grant
	// of the snapshot the plan was sized on (0 before the first one).
	PlannedAlloc, PlannedKmax int
	OfferedRate, AdmittedRate float64 // tuples/s over the round
	Offered, Admitted, Shed   int64   // record deltas over the round
}

// replan re-aims the clients' admission exactly as the live gate does
// each round: read the supervisor's latest (demand-scaled) snapshot, size
// the sustainable rate for maxSlots under tmax, and split it by client
// weight.
func replan(clients []*gateClient, sup *loop.Supervisor, tmax float64, maxSlots int) GateRound {
	var g GateRound
	rates := make([]float64, len(clients))
	weights := make([]float64, len(clients))
	ids := make([]string, len(clients))
	for i, c := range clients {
		rates[i] = float64(c.Offered-c.last.Offered) / controlInterval
		g.OfferedRate += rates[i]
		g.AdmittedRate += float64(c.Admitted-c.last.Admitted) / controlInterval
		g.Offered += c.Offered - c.last.Offered
		g.Admitted += c.Admitted - c.last.Admitted
		g.Shed += c.Shed - c.last.Shed
		c.last = c.ClientStats
		weights[i], ids[i] = c.Weight, c.Name
	}
	g.Plan = ingest.Plan{AdmitFraction: 1, SustainableRate: g.OfferedRate, ScaleOutViable: true}
	if snap, ok := sup.LastSnapshot(); ok {
		g.Plan = ingest.PlanAdmission(snap, tmax, maxSlots, g.OfferedRate)
		for _, k := range snap.Alloc {
			g.PlannedAlloc += k
		}
		g.PlannedKmax = snap.Kmax
	}
	for i, p := range ingest.AdmitPermilles(nil, g.Plan, weights, ids, rates) {
		clients[i].permille = p
	}
	return g
}

// ArcRound samples the arc once per control round, after the supervisors
// ran.
type ArcRound struct {
	// AtSeconds is the round's simulated time.
	AtSeconds float64
	// Grants holds each tenant's slot grant, in spec order.
	Grants []int
	// Capacity is the live slot count.
	Capacity int
	// Over is Leased − Capacity (> 0 means a slot double-leased);
	// BadPlacement reports an overcommitted machine or placed ≠ leased
	// totals.
	Over         int
	BadPlacement bool
	// Gates holds each tenant's front-door reading, in spec order (the
	// zero value for a tenant without gated sources).
	Gates []GateRound
	// Dropped is the cumulative queue-drop count over every tenant.
	Dropped int64
}

// ArcTenant is one tenant's account of the whole arc.
type ArcTenant struct {
	Name string
	// InitialGrant is the registration grant.
	InitialGrant int
	// Series is the per-minute sojourn curve of admitted tuples.
	Series []sim.SeriesPoint
	// Transitions are the tenant supervisor's applied decisions, failover
	// and preemption shrinks included.
	Transitions []Transition
	// SlotsLost is the scheduler's cumulative failure-loss attribution.
	SlotsLost int
	// Dropped and Pending audit the zero-loss claim: queue drops over both
	// stages, and processing trees still unresolved at the end of the run
	// (bounded by in-flight work; a leak would grow it).
	Dropped, Pending int64
	// SimShed is the simulator's own count of gate-refused arrivals; the
	// books agree when it equals the Clients' Shed sum.
	SimShed int64
	// Clients are the gated sources' front-door books.
	Clients []ClientStats
}

// Arc is the multi-tenant runner's result.
type Arc struct {
	// Applied logs every scripted event as resolved at fire time.
	Applied []string
	// Rounds samples the arbitration once per control round.
	Rounds []ArcRound
	// Tenants holds the per-tenant accounts, in spec order.
	Tenants []ArcTenant
	// SchedulerHistory is the cluster-wide decision log.
	SchedulerHistory []cluster.SchedulerEvent
	// MaxLeaseOverCapacity is the worst Over of any round; it must never
	// exceed zero. PlacementViolations counts the BadPlacement rounds.
	MaxLeaseOverCapacity, PlacementViolations int
	// DroppedTuples and PendingAtEnd total the tenants' zero-loss audit.
	DroppedTuples, PendingAtEnd int64
}

// arcTenant bundles one running tenant's lease, simulator, supervisor and
// gate clients.
type arcTenant struct {
	lease   *cluster.Tenant
	s       *sim.Sim
	sup     *loop.Supervisor
	clients []*gateClient
}

// dropped sums the tenant's queue drops over both stages.
func (t *arcTenant) dropped() (n int64) {
	for _, d := range t.s.Dropped() {
		n += d
	}
	return n
}

// arcRun is the live state of one arc: the pool and its scheduler on the
// arc's virtual clock, and the tenants in spec order — also the order
// inside every round.
type arcRun struct {
	spec     arcSpec
	pool     *cluster.Pool
	sched    *cluster.Scheduler
	clock    *simClock
	failures *loopFailures
	dlog     *obs.Log
	tenants  []*arcTenant
	// killedOf and stragglerOf map a nominal event machine to the actual
	// pool machine its opening event resolved to, so the closing event
	// (recover, straggler-off) targets the same machine.
	killedOf, stragglerOf map[int]int
}

// start registers a lease and starts one supervised tenant against it.
func (a *arcRun) start(ts arcTenantSpec, seed uint64) error {
	lease, err := a.sched.Register(ts.lease)
	if err != nil {
		return err
	}
	emit, err := sim.NewFractionalEmission(1)
	if err != nil {
		return err
	}
	t := &arcTenant{lease: lease}
	sources := make([]sim.SourceSpec, len(ts.sources))
	for i, src := range ts.sources {
		sources[i].Arrivals = src.arrivals
		if src.weight > 0 {
			c := &gateClient{ClientStats: ClientStats{Name: src.name, Weight: src.weight}, permille: 1000}
			t.clients = append(t.clients, c)
			sources[i].Admit = c.admit
		}
	}
	names := []string{"stage1", "stage2"}
	t.s, err = sim.New(sim.Config{
		Operators: []sim.OperatorSpec{
			{Service: ts.service},
			{Service: ts.service},
		},
		Sources: sources,
		Edges:   []sim.EdgeSpec{{From: 0, To: 1, Emit: emit}},
		Alloc:   []int{ts.lease.InitialSlots / 2, ts.lease.InitialSlots / 2},
		Seed:    seed,
	})
	if err != nil {
		return err
	}
	t.s.EnableSeries(60)
	// Slots are granted individually by the scheduler — machine
	// quantization happens below the leases, not per tenant.
	ctrl, err := core.NewController(core.ControllerConfig{
		Mode:         core.ModeMinResource,
		Tmax:         a.spec.tmax,
		MinGain:      0.05,
		ScaleInSlack: a.spec.slack,
		// 0.6 pins the scale-in floor at the designed steady-state sizes:
		// the next-smaller allocation of every tenant runs a stage at
		// ρ > 0.6, so a noisy (optimistic) snapshot cannot shrink past it.
		MaxScaleInUtilization: 0.6,
	})
	if err != nil {
		return err
	}
	t.sup, err = loop.New(loop.Config{
		Target:      simTarget{s: t.s, names: names},
		Operators:   names,
		Stepper:     ctrl,
		Pool:        lease,
		Interval:    secondsToDuration(controlInterval),
		Cooldown:    secondsToDuration(4 * controlInterval),
		Clock:       a.clock.Now,
		Logger:      slog.New(a.failures),
		Tenant:      ts.lease.Name,
		DecisionLog: a.dlog,
	})
	if err != nil {
		return err
	}
	a.tenants = append(a.tenants, t)
	return nil
}

// runArc steps the spec's tenants in lock step on a shared virtual clock
// to tl.horizon. Every round: advance each tenant's simulator, set the
// clock, fire the due events, let each supervisor measure (before
// tl.enableAt) or decide (from it on), audit the leases and the placement,
// re-aim every admission gate, and book the round. A non-nil
// o.DecisionLog receives the scheduler's and every supervisor's decisions
// and one shed-plan record per gated tenant per round.
func runArc(spec arcSpec, tl timeline, o Options) (Arc, error) {
	var res Arc
	pool, err := cluster.NewPool(cluster.PoolConfig{
		SlotsPerMachine: spec.slotsPerMachine,
		MaxMachines:     spec.maxMachines,
		Costs: cluster.CostModel{
			Rebalance:        3 * time.Second,
			MachineColdStart: 4777 * time.Millisecond,
			MachineRelease:   1113 * time.Millisecond,
		},
	}, 1)
	if err != nil {
		return res, err
	}
	a := &arcRun{
		spec: spec, pool: pool, clock: &simClock{}, failures: &loopFailures{}, dlog: o.DecisionLog,
		killedOf: make(map[int]int), stragglerOf: make(map[int]int),
	}
	a.sched, err = cluster.NewScheduler(cluster.SchedulerConfig{Pool: pool, Clock: a.clock.Now, DecisionLog: a.dlog})
	if err != nil {
		return res, err
	}
	for i, ts := range spec.tenants {
		if err := a.start(ts, o.seed()+uint64(i)); err != nil {
			return res, err
		}
		res.Tenants = append(res.Tenants, ArcTenant{Name: ts.lease.Name, InitialGrant: a.tenants[i].lease.Kmax()})
	}

	next := 0
	for t := controlInterval; t <= tl.horizon+1e-9; t += controlInterval {
		for _, tn := range a.tenants {
			tn.s.RunUntil(t)
		}
		a.clock.set(t)
		for ; next < len(spec.events) && spec.events[next].At <= t+1e-9; next++ {
			line, err := a.apply(spec.events[next])
			if err != nil {
				return res, fmt.Errorf("%s: %w", spec.name, err)
			}
			res.Applied = append(res.Applied, line)
		}
		for _, tn := range a.tenants {
			if t < tl.enableAt {
				tn.sup.Observe() // measure, but leave the controller disabled
			} else {
				tn.sup.Tick()
			}
		}
		st := a.sched.State()
		r := ArcRound{
			AtSeconds: t, Capacity: st.Capacity, Over: st.Leased - st.Capacity,
			Gates: make([]GateRound, len(a.tenants)),
		}
		placed := 0
		for _, row := range st.Placement {
			if row.Reserved+row.Leased > row.Slots {
				r.BadPlacement = true
			}
			placed += row.Leased
		}
		if placed != st.Leased {
			r.BadPlacement = true
		}
		res.MaxLeaseOverCapacity = max(res.MaxLeaseOverCapacity, r.Over)
		if r.BadPlacement {
			res.PlacementViolations++
		}
		for i, tn := range a.tenants {
			r.Grants = append(r.Grants, tn.lease.Kmax())
			r.Dropped += tn.dropped()
			if len(tn.clients) == 0 {
				continue
			}
			g := replan(tn.clients, tn.sup, spec.tmax, spec.slotsPerMachine*spec.maxMachines)
			r.Gates[i] = g
			// One auditable record per gated tenant per round, stamped with
			// simulated time and carrying the round's admitted/shed deltas.
			// (Emit is a no-op on a nil log.)
			a.dlog.Emit(&obs.Record{
				At:   simEpoch.Add(secondsToDuration(t)).UnixNano(),
				Kind: obs.KindShedPlan, Tenant: res.Tenants[i].Name,
				From: g.PlannedAlloc, To: g.PlannedKmax,
				Fraction: g.Plan.AdmitFraction, Rate: g.Plan.SustainableRate,
				Lambda0: g.OfferedRate, Flag: g.Plan.ScaleOutViable,
				Gain: float64(g.Admitted), Loss: float64(g.Shed),
			})
		}
		res.Rounds = append(res.Rounds, r)
	}
	if err := a.failures.err(); err != nil {
		return res, fmt.Errorf("experiments: %s run: %w", spec.name, err)
	}
	res.SchedulerHistory = a.sched.History()
	for i, tn := range a.tenants {
		ts := &res.Tenants[i]
		ts.Series, ts.Transitions = tn.s.Series(), transitionsFrom(tn.sup)
		ts.SlotsLost = tn.lease.LostSlots()
		ts.Dropped, ts.Pending, ts.SimShed = tn.dropped(), tn.s.PendingRoots(), tn.s.ShedArrivals()
		for _, c := range tn.clients {
			if c.Offered > 0 {
				c.ShedFraction = float64(c.Shed) / float64(c.Offered)
			}
			ts.Clients = append(ts.Clients, c.ClientStats)
		}
		res.DroppedTuples += ts.Dropped
		res.PendingAtEnd += ts.Pending
	}
	return res, nil
}

// apply fires one scripted event and returns its resolved log line.
// Machine-targeted events resolve their victims at fire time — the set of
// live machines varies as the demand-driven negotiation grows and shrinks
// the pool (IDs are never reused, but old ones retire and new ones
// appear), so an event's Machine is a nominal key: a fail takes the newest
// live machine, a straggler mark the oldest healthy one, a decommission
// fails the newest live machine and returns it to the provider, and a
// recovery or straggler clear takes whatever its opening event took.
func (a *arcRun) apply(ev scenario.Event) (string, error) {
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

// printGrants renders the arbitration timeline, one column per minute:
// the tenants' grants, and after a colon the capacity when withCapacity.
func (r Arc) printGrants(w io.Writer, withCapacity bool) {
	names := make([]string, len(r.Tenants))
	for i, ts := range r.Tenants {
		names[i] = ts.Name
	}
	fmt.Fprintf(w, "grants (%s of capacity), one column per minute:\n  ", strings.Join(names, "/"))
	for i, round := range r.Rounds {
		if i%6 != 5 { // 10 s rounds -> print once per minute
			continue
		}
		cols := make([]string, len(round.Grants))
		for j, k := range round.Grants {
			cols[j] = fmt.Sprintf("%d", k)
		}
		fmt.Fprint(w, strings.Join(cols, "/"))
		if withCapacity {
			fmt.Fprintf(w, ":%d", round.Capacity)
		}
		fmt.Fprint(w, " ")
	}
	fmt.Fprintln(w)
}

// printCurve renders one per-minute E[T] curve.
func printCurve(w io.Writer, name string, series []sim.SeriesPoint) {
	fmt.Fprintf(w, "%s E[T] by minute (ms): ", name)
	printMinutes(w, series)
	fmt.Fprintln(w)
}

// printTransitions renders the tenant's applied decisions, forced shrinks
// marked by cause.
func (ts ArcTenant) printTransitions(w io.Writer) {
	for _, tr := range ts.Transitions {
		mark := ""
		switch {
		case tr.SlotsLost:
			mark = " [slots-lost]"
		case tr.Preempted:
			mark = " [preempted]"
		}
		fmt.Fprintf(w, "  %-6s t=%5.0fs %-10s -> %s, Kmax=%d (pause %.1fs)%s: %s\n",
			ts.Name, tr.AtSeconds, tr.Action, allocString(tr.Alloc), tr.Kmax, tr.PauseSeconds, mark, tr.Reason)
	}
}

// printTenants renders every tenant's curve, then every tenant's
// transitions.
func (r Arc) printTenants(w io.Writer) {
	for _, ts := range r.Tenants {
		printCurve(w, ts.Name, ts.Series)
	}
	for _, ts := range r.Tenants {
		ts.printTransitions(w)
	}
}

// printSchedulerHistory renders the cluster-wide decision log.
func (r Arc) printSchedulerHistory(w io.Writer) {
	fmt.Fprintln(w, "scheduler history:")
	for _, ev := range r.SchedulerHistory {
		fmt.Fprintf(w, "  t=%5.0fs %s\n", ev.At.Sub(simEpoch).Seconds(), ev)
	}
}

// print renders the client's books as one table row, without the newline.
func (c ClientStats) print(w io.Writer) {
	fmt.Fprintf(w, "%-8s %7.0f %10d %10d %10d %6.1f%%",
		c.Name, c.Weight, c.Offered, c.Admitted, c.Shed, c.ShedFraction*100)
}
