package experiments

import (
	"fmt"
	"io"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/sim"
	"github.com/drs-repro/drs/internal/stats"
)

// The multi-tenant contention experiment: two supervised topologies share
// one machine pool through the cluster Scheduler, and a staggered load
// step on the higher-priority tenant forces the arbiter to preempt slots
// from the other tenant and hand them back once the surge passes — the
// shared-cluster setting the paper's §V evaluation ran in, which the
// single-loop Figures 9-10 never exercise.
//
// Both tenants run the same two-stage chain (µ = 2/s per processor,
// selectivity 1), so every threshold below is exact M/M/k arithmetic:
//
//   - "steady" (priority 0) takes λ0 = 6/s throughout. Program (6) under
//     Tmax = 1.3 s settles it at 10 slots, (5:5), E[T] ≈ 1.12 s — a ~15%
//     noise margin to the target. Its preemption floor of 8 keeps it
//     stable, but (4:4) runs at E[T] ≈ 1.51 s, violating, so a preempted
//     steady keeps bidding for its slots back.
//   - "bursty" (priority 1) takes λ0 = 4/s, stepped ×2.5 to 10/s during
//     the middle window. At base it needs 8 slots, (4:4), E[T] ≈ 1.09 s;
//     at peak it needs 14, (7:7) — but the pool tops out at 5 machines ×
//     4 slots = 20, so its demand can only be met by preempting steady.
//
// The 0.16 scale-in slack tightens both tenants' release target to
// ~1.09 s, which pins the scale-in sizes exactly at the steady-state
// allocations (10 and 8 slots) — measurement noise cannot pull either
// tenant below its settled size, only the load step moves slots.
//
// Expected arc: both settle → step hits → bursty violates, requests 14,
// gets the fair share plus a preemption down to steady's floor (8/12) →
// step ends → bursty converges and scales in → steady reclaims its 10.
const (
	contentionTmax     = 1.3  // both tenants' Tmax, seconds
	contentionSlack    = 0.16 // scale-in slack (see above)
	contentionMu       = 2.0  // per-processor service rate, both stages
	steadyRate         = 6.0  // steady tenant's λ0
	burstyBaseRate     = 4.0  // bursty tenant's λ0 outside the window
	burstyStepFactor   = 2.5  // rate multiplier inside the window
	contentionSlots    = 4    // slots per machine
	contentionMachines = 5    // provider cap: 20 slots total
	steadyInitial      = 10   // steady's registration grant
	burstyInitial      = 8    // bursty's registration grant
	contentionFloor    = 8    // both tenants' preemption floor (stable)
)

// ContentionGrantPoint samples the arbitration state once per control
// round: who holds how many slots, against what capacity.
type ContentionGrantPoint struct {
	// AtSeconds is the simulated time of the sample.
	AtSeconds float64
	// Steady and Bursty are the tenants' slot grants.
	Steady, Bursty int
	// Capacity is the pool's total slot count at the sample.
	Capacity int
}

// ContentionResult carries the full arc of the two-tenant run.
type ContentionResult struct {
	// Tmax is the (shared) latency target.
	Tmax float64
	// StepFrom and StepUntil bound the bursty tenant's surge window.
	StepFrom, StepUntil float64
	// SeriesSteady and SeriesBursty are the per-minute sojourn curves.
	SeriesSteady, SeriesBursty []sim.SeriesPoint
	// TransitionsSteady and TransitionsBursty are each supervisor's applied
	// decisions, preemption shrinks included.
	TransitionsSteady, TransitionsBursty []Transition
	// Grants samples the arbitration once per control round.
	Grants []ContentionGrantPoint
	// SchedulerHistory is the cluster-wide decision log.
	SchedulerHistory []cluster.SchedulerEvent
	// PreemptedSlots is the largest number of slots taken from steady.
	PreemptedSlots int
	// BurstyPeakGrant is bursty's largest grant during the run.
	BurstyPeakGrant int
	// SteadyRestored reports whether steady's grant returned to its
	// pre-step level after the surge window closed (a later voluntary
	// scale-in may shrink it again).
	SteadyRestored bool
	// MaxLeaseOverCapacity is the worst observed Leased − Capacity over
	// every sample; it must never exceed zero (no slot double-leased).
	MaxLeaseOverCapacity int
	// FinalState is the arbitration state at the end of the run.
	FinalState cluster.SchedulerState
}

// RunContention runs the two-tenant arbitration experiment: 27 simulated
// minutes, controllers enabled from minute 3, the bursty tenant surging
// ×2.5 between minutes 9 and 18.
func RunContention(o Options) (ContentionResult, error) {
	o = o.withDefaults()
	duration := 27 * 60.0
	enableAt := 3 * 60.0
	stepFrom, stepUntil := 9*60.0, 18*60.0
	if o.Duration != 600 { // scaled-down run (benchmarks, quick tests)
		duration = o.Duration
		enableAt = duration / 9
		stepFrom, stepUntil = duration/3, 2*duration/3
	}
	res := ContentionResult{Tmax: contentionTmax, StepFrom: stepFrom, StepUntil: stepUntil}

	a, err := newArc("contention", contentionSlots, contentionMachines, nil)
	if err != nil {
		return res, err
	}
	p := twoStageParams{service: stats.Exponential{Rate: contentionMu}, tmax: contentionTmax, slack: contentionSlack}
	steady, err := a.tenant(cluster.TenantConfig{
		Name: "steady", Priority: 0, MinSlots: contentionFloor, InitialSlots: steadyInitial,
	}, p, o.Seed, sim.SourceSpec{Arrivals: sim.PoissonArrivals{Rate: steadyRate}})
	if err != nil {
		return res, err
	}
	bursty, err := a.tenant(cluster.TenantConfig{
		Name: "bursty", Priority: 1, MinSlots: contentionFloor, InitialSlots: burstyInitial,
	}, p, o.Seed+1, sim.SourceSpec{Arrivals: &sim.SteppedRate{
		Base:   sim.PoissonArrivals{Rate: burstyBaseRate},
		Factor: burstyStepFactor, From: stepFrom, Until: stepUntil,
	}})
	if err != nil {
		return res, err
	}

	preStepSteady := steady.lease.Kmax()
	err = a.run(duration, enableAt, func(r arcRound) {
		sg, bg := steady.lease.Kmax(), bursty.lease.Kmax()
		res.Grants = append(res.Grants, ContentionGrantPoint{
			AtSeconds: r.t, Steady: sg, Bursty: bg, Capacity: r.st.Capacity,
		})
		res.PreemptedSlots = max(res.PreemptedSlots, preStepSteady-sg)
		res.BurstyPeakGrant = max(res.BurstyPeakGrant, bg)
		if r.t >= stepUntil && sg >= preStepSteady {
			res.SteadyRestored = true
		}
	})
	res.MaxLeaseOverCapacity = a.maxOver
	if err != nil {
		return res, err
	}
	res.SeriesSteady = steady.s.Series()
	res.SeriesBursty = bursty.s.Series()
	res.TransitionsSteady = transitionsFrom(steady.sup)
	res.TransitionsBursty = transitionsFrom(bursty.sup)
	res.SchedulerHistory = a.sched.History()
	res.FinalState = a.sched.State()
	return res, nil
}

// Print renders the arc: the grant timeline, both sojourn curves, each
// supervisor's transitions and the scheduler's decision history.
func (r ContentionResult) Print(w io.Writer) {
	header(w, fmt.Sprintf("Contention: two tenants, one pool; Tmax = %.0f ms, surge x%.1f during [%.0fs, %.0fs)",
		r.Tmax*1e3, burstyStepFactor, r.StepFrom, r.StepUntil))
	fmt.Fprint(w, "grants (steady/bursty of capacity), one column per minute:\n  ")
	for i, g := range r.Grants {
		if i%6 != 5 { // 10 s rounds -> print once per minute
			continue
		}
		fmt.Fprintf(w, "%d/%d ", g.Steady, g.Bursty)
	}
	fmt.Fprintln(w)
	printSojournCurve(w, "steady", r.SeriesSteady)
	printSojournCurve(w, "bursty", r.SeriesBursty)
	printTransitions(w, "steady", r.TransitionsSteady)
	printTransitions(w, "bursty", r.TransitionsBursty)
	printSchedulerHistory(w, r.SchedulerHistory)
	fmt.Fprintf(w, "max slots preempted from steady: %d; bursty peak grant: %d\n",
		r.PreemptedSlots, r.BurstyPeakGrant)
	fmt.Fprintf(w, "steady restored to pre-step grant: %v; double-leased slots: %d\n",
		r.SteadyRestored, r.MaxLeaseOverCapacity)
}
