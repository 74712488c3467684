package experiments

import (
	"fmt"
	"io"
	"math"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/scenario"
	"github.com/drs-repro/drs/internal/sim"
	"github.com/drs-repro/drs/internal/stats"
)

// The machine-churn experiment: the contention setting made lossy. Two
// supervised tenants share one machine pool through the cluster Scheduler;
// mid-way through the bursty tenant's surge, two machines crash (MTTR-
// style outage from a scripted sim.FailureTrace schedule) and the whole
// stack must ride it out: the scheduler re-arbitrates out of band against
// the surviving capacity — floors, water-fill and the preemption overlay
// all still hold, with "slots-lost" attribution — negotiates one
// replacement machine within the provider cap, and both supervisors re-fit
// their allocations to the shrunken grants (SlotsLost / Preempted events)
// outside the cooldown gate. When the machines recover, the standing
// demands re-claim the capacity and both tenants converge back under Tmax.
//
// Both tenants run the same two-stage chain (µ = 2/s per processor,
// selectivity 1), so the thresholds are exact M/M/k arithmetic:
//
//   - "steady" (priority 0) takes λ0 = 3/s throughout. Under Tmax = 1.3 s
//     it settles at 6 slots, (3:3), E[T] ≈ 1.16 s; its stable minimum —
//     and preemption floor — is 4, (2:2), E[T] ≈ 2.29 s: stable but
//     violating, so a degraded steady keeps bidding for its slots back.
//   - "bursty" (priority 1) takes λ0 = 3/s, stepped ×2 to 6/s during the
//     surge window. At base it also settles at 6; at peak it needs 10,
//     (5:5), E[T] ≈ 1.12 s.
//
// Expected arc: both settle at 6/6 on 3 machines → surge: bursty grows to
// 10, the pool to 4 machines (16 slots) → kill 2 machines: effective cap
// 3 of 5, the scheduler provisions 1 replacement (cold start) for 12
// slots, grants re-arbitrate to (4, 8) — bursty loses 2 to the crash
// ("slots-lost"), steady is preempted to its floor — and both supervisors
// vacate immediately → recovery: capacity returns, grants re-converge to
// (6, 10), both tenants drop back under Tmax while the surge still runs →
// surge ends: bursty scales in, the pool follows. Throughout: no slot
// double-leased, no placement overcommit, and no tuple lost forever.
const (
	churnTmax       = 1.3 // both tenants' Tmax, seconds
	churnSlack      = 0.1 // scale-in slack
	churnMu         = 2.0 // per-processor service rate, both stages
	churnBaseRate   = 3.0 // both tenants' λ0 outside the surge
	churnStepFactor = 2.0 // bursty's rate multiplier inside the surge
	churnSlots      = 4   // slots per machine
	churnMachines   = 5   // provider cap: the 20-slot pool
	churnInitial    = 6   // both tenants' registration grant, (3:3)
	churnFloor      = 4   // both tenants' preemption floor (stable minimum)
	churnKillCount  = 2   // machines crashed mid-surge
)

// ChurnGrantPoint samples the arbitration state once per control round.
type ChurnGrantPoint struct {
	// AtSeconds is the simulated time of the sample.
	AtSeconds float64
	// Steady and Bursty are the tenants' slot grants.
	Steady, Bursty int
	// Capacity is the live slot count; Machines the live machine count.
	Capacity, Machines int
}

// ChurnResult carries the full arc of the failure run.
type ChurnResult struct {
	// Tmax is the (shared) latency target.
	Tmax float64
	// StepFrom and StepUntil bound the bursty tenant's surge window.
	StepFrom, StepUntil float64
	// KillAt and RecoverAt bound the two-machine outage.
	KillAt, RecoverAt float64
	// KilledMachines lists the crashed machines' pool IDs.
	KilledMachines []int
	// SeriesSteady and SeriesBursty are the per-minute sojourn curves.
	SeriesSteady, SeriesBursty []sim.SeriesPoint
	// TransitionsSteady and TransitionsBursty are each supervisor's
	// applied decisions, failover and preemption shrinks included.
	TransitionsSteady, TransitionsBursty []Transition
	// Grants samples the arbitration once per control round.
	Grants []ChurnGrantPoint
	// SchedulerHistory is the cluster-wide decision log.
	SchedulerHistory []cluster.SchedulerEvent
	// MaxLeaseOverCapacity is the worst observed Leased − Capacity over
	// every sample; it must never exceed zero (no slot double-leased).
	MaxLeaseOverCapacity int
	// PlacementViolations counts samples whose slot → machine mapping was
	// inconsistent (overcommitted machine, or placed ≠ leased totals).
	PlacementViolations int
	// ReplacementNegotiated reports whether the scheduler provisioned a
	// fresh machine during the outage (the within-cap replacement).
	ReplacementNegotiated bool
	// FailoverShrinks and PreemptShrinks count the supervisors' forced
	// re-fits by cause; SlotsLostSteady/Bursty are the scheduler-side
	// cumulative per-tenant failure losses.
	FailoverShrinks, PreemptShrinks  int
	SlotsLostSteady, SlotsLostBursty int
	// ConvergedAtSeconds is the start of the first post-kill minute from
	// which both tenants stay under Tmax through the rest of the surge
	// window; RecoverySeconds counts from machine recovery to there.
	ConvergedAtSeconds, RecoverySeconds float64
	// DroppedTuples and PendingAtEnd audit the zero-loss claim: queue
	// drops across both tenants, and processing trees still unresolved at
	// the end of the run (bounded by in-flight work; a leak would grow it).
	DroppedTuples, PendingAtEnd int64
	// FinalState is the arbitration state at the end of the run.
	FinalState cluster.SchedulerState
}

// RunChurn runs the machine-failure experiment: 27 simulated minutes,
// controllers enabled from minute 3, the bursty tenant surging ×2 between
// minutes 9 and 18, and a 2-machine, 2-minute outage starting at minute 11.
func RunChurn(o Options) (ChurnResult, error) {
	o = o.withDefaults()
	duration := 27 * 60.0
	enableAt := 3 * 60.0
	stepFrom, stepUntil := 9*60.0, 18*60.0
	killAt, killDown := 11*60.0, 2*60.0
	if o.Duration != 600 { // scaled-down run (benchmarks, quick tests)
		f := o.Duration / duration
		duration = o.Duration
		enableAt, stepFrom, stepUntil = enableAt*f, stepFrom*f, stepUntil*f
		killAt, killDown = killAt*f, killDown*f
	}
	res := ChurnResult{Tmax: churnTmax, StepFrom: stepFrom, StepUntil: stepUntil,
		KillAt: killAt, RecoverAt: killAt + killDown}

	a, err := newArc("churn", churnSlots, churnMachines, nil)
	if err != nil {
		return res, err
	}
	p := twoStageParams{service: stats.Exponential{Rate: churnMu}, tmax: churnTmax, slack: churnSlack}
	steady, err := a.tenant(cluster.TenantConfig{
		Name: "steady", Priority: 0, MinSlots: churnFloor, InitialSlots: churnInitial,
	}, p, o.Seed, sim.SourceSpec{Arrivals: sim.PoissonArrivals{Rate: churnBaseRate}})
	if err != nil {
		return res, err
	}
	bursty, err := a.tenant(cluster.TenantConfig{
		Name: "bursty", Priority: 1, MinSlots: churnFloor, InitialSlots: churnInitial,
	}, p, o.Seed+1, sim.SourceSpec{Arrivals: &sim.SteppedRate{
		Base:   sim.PoissonArrivals{Rate: churnBaseRate},
		Factor: churnStepFactor, From: stepFrom, Until: stepUntil,
	}})
	if err != nil {
		return res, err
	}

	// The outage schedule. The script's Machine fields are nominal: the
	// arc resolves each kill to the newest live machine at fire time, and
	// each recovery to the machine its kill took.
	for _, ev := range sim.Script(
		sim.Kill{Machine: 0, At: killAt, Down: killDown},
		sim.Kill{Machine: 1, At: killAt, Down: killDown},
	) {
		kind := scenario.KindRecover
		if ev.Fail {
			kind = scenario.KindFail
		}
		a.events = append(a.events, scenario.Event{At: ev.At, Kind: kind, Machine: ev.Machine})
	}

	err = a.run(duration, enableAt, func(r arcRound) {
		res.Grants = append(res.Grants, ChurnGrantPoint{
			AtSeconds: r.t,
			Steady:    steady.lease.Kmax(),
			Bursty:    bursty.lease.Kmax(),
			Capacity:  r.st.Capacity,
			Machines:  r.st.Machines,
		})
	})
	res.MaxLeaseOverCapacity, res.PlacementViolations = a.maxOver, a.placementViolations
	if err != nil {
		return res, err
	}
	res.SeriesSteady = steady.s.Series()
	res.SeriesBursty = bursty.s.Series()
	res.TransitionsSteady = transitionsFrom(steady.sup)
	res.TransitionsBursty = transitionsFrom(bursty.sup)
	res.SchedulerHistory = a.sched.History()
	res.FinalState = a.sched.State()
	res.SlotsLostSteady = steady.lease.LostSlots()
	res.SlotsLostBursty = bursty.lease.LostSlots()
	for _, ev := range res.SchedulerHistory {
		at := ev.At.Sub(simEpoch).Seconds()
		if ev.Kind == "pool" && ev.Detail == "scale-out" && at >= killAt && at < res.RecoverAt {
			res.ReplacementNegotiated = true
		}
		if ev.Kind == "machine-fail" {
			res.KilledMachines = append(res.KilledMachines, machineOf(ev.Detail))
		}
	}
	for _, trs := range [][]Transition{res.TransitionsSteady, res.TransitionsBursty} {
		for _, tr := range trs {
			switch {
			case tr.SlotsLost:
				res.FailoverShrinks++
			case tr.Preempted:
				res.PreemptShrinks++
			}
		}
	}
	res.DroppedTuples = steady.dropped() + bursty.dropped()
	res.PendingAtEnd = steady.s.PendingRoots() + bursty.s.PendingRoots()
	res.ConvergedAtSeconds, res.RecoverySeconds = churnConvergence(res)
	return res, nil
}

// machineOf extracts the machine ID from a lifecycle event's detail line
// ("machine N"); 0 when the detail has another shape.
func machineOf(detail string) int {
	var id int
	if _, err := fmt.Sscanf(detail, "machine %d", &id); err != nil {
		return 0
	}
	return id
}

// churnConvergence finds, within the surge window, the first post-kill
// minute from which both tenants stay at or under Tmax for the rest of the
// window. A minute with no completions counts as violating — a stalled
// tenant is not a converged one.
func churnConvergence(res ChurnResult) (convergedAt, recovery float64) {
	bad := func(series []sim.SeriesPoint) float64 {
		last := -1.0
		for _, pt := range series {
			if pt.Start < res.KillAt || pt.Start >= res.StepUntil {
				continue
			}
			if math.IsNaN(pt.MeanSojourn) || pt.MeanSojourn > res.Tmax {
				last = pt.Start
			}
		}
		return last
	}
	lastBad := math.Max(bad(res.SeriesSteady), bad(res.SeriesBursty))
	if lastBad < 0 {
		return res.KillAt, 0 // never violated after the kill
	}
	convergedAt = lastBad + 60
	if convergedAt >= res.StepUntil {
		return 0, 0 // never re-converged inside the surge window
	}
	// Convergence can land during the outage itself (a gentle kill the
	// floors absorb); recovery time never reads negative.
	if recovery = convergedAt - res.RecoverAt; recovery < 0 {
		recovery = 0
	}
	return convergedAt, recovery
}

// Print renders the arc: the outage timeline, the grant and capacity
// series, both sojourn curves, each supervisor's transitions and the
// scheduler's decision history.
func (r ChurnResult) Print(w io.Writer) {
	header(w, fmt.Sprintf("Churn: 2-machine kill at t=%.0fs (recover t=%.0fs) through a x%.1f surge during [%.0fs, %.0fs); Tmax = %.0f ms",
		r.KillAt, r.RecoverAt, churnStepFactor, r.StepFrom, r.StepUntil, r.Tmax*1e3))
	fmt.Fprint(w, "grants (steady/bursty of capacity), one column per minute:\n  ")
	for i, g := range r.Grants {
		if i%6 != 5 { // 10 s rounds -> print once per minute
			continue
		}
		fmt.Fprintf(w, "%d/%d:%d ", g.Steady, g.Bursty, g.Capacity)
	}
	fmt.Fprintln(w)
	printSojournCurve(w, "steady", r.SeriesSteady)
	printSojournCurve(w, "bursty", r.SeriesBursty)
	printTransitions(w, "steady", r.TransitionsSteady)
	printTransitions(w, "bursty", r.TransitionsBursty)
	printSchedulerHistory(w, r.SchedulerHistory)
	fmt.Fprintf(w, "killed machines %v; replacement negotiated within cap: %v\n",
		r.KilledMachines, r.ReplacementNegotiated)
	fmt.Fprintf(w, "slots lost to failures: steady=%d bursty=%d; failover shrinks: %d; preempt shrinks: %d\n",
		r.SlotsLostSteady, r.SlotsLostBursty, r.FailoverShrinks, r.PreemptShrinks)
	fmt.Fprintf(w, "re-converged under Tmax at t=%.0fs (%.0fs after recovery)\n",
		r.ConvergedAtSeconds, r.RecoverySeconds)
	fmt.Fprintf(w, "double-leased slots: %d; placement violations: %d; dropped tuples: %d; pending at end: %d\n",
		r.MaxLeaseOverCapacity, r.PlacementViolations, r.DroppedTuples, r.PendingAtEnd)
}
