package experiments

import (
	"fmt"
	"io"

	"github.com/drs-repro/drs/internal/sim"
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

// contentionPaper is the contention timeline: 27 simulated minutes,
// controllers enabled from minute 3, the bursty tenant surging between
// minutes 9 and 18.
var contentionPaper = timeline{horizon: 27 * 60, enableAt: 3 * 60, stepFrom: 9 * 60, stepUntil: 18 * 60}

// ContentionResult is the two-tenant arc (Tenants and Grants in the order
// steady, bursty) and its claims.
type ContentionResult struct {
	Arc
	// Tmax is the (shared) latency target.
	Tmax float64
	// StepFrom and StepUntil bound the bursty tenant's surge window.
	StepFrom, StepUntil float64
	// PreemptedSlots is the largest number of slots taken from steady.
	PreemptedSlots int
	// BurstyPeakGrant is bursty's largest grant during the run.
	BurstyPeakGrant int
	// SteadyRestored reports whether steady's grant returned to its
	// pre-step level after the surge window closed (a later voluntary
	// scale-in may shrink it again).
	SteadyRestored bool
}

// RunContention runs the two-tenant arbitration experiment.
func RunContention(o Options) (ContentionResult, error) {
	tl := contentionPaper.at(o)
	res := ContentionResult{Tmax: contentionTmax, StepFrom: tl.stepFrom, StepUntil: tl.stepUntil}
	ch := chain{tmax: contentionTmax, slack: contentionSlack}
	var err error
	res.Arc, err = runArc(arcSpec{
		name: "contention", pool: chainPool(contentionSlots, contentionMachines),
		tenants: []arcTenantSpec{
			ch.exp("steady", 0, contentionFloor, steadyInitial, contentionMu, sim.PoissonArrivals{Rate: steadyRate}),
			ch.exp("bursty", 1, contentionFloor, burstyInitial, contentionMu, tl.step(burstyBaseRate, burstyStepFactor)),
		},
	}, tl, o)
	if err != nil {
		return res, err
	}
	preStepSteady := res.Tenants[0].InitialGrant
	for _, r := range res.Rounds {
		sg, bg := r.Grants[0], r.Grants[1]
		res.PreemptedSlots = max(res.PreemptedSlots, preStepSteady-sg)
		res.BurstyPeakGrant = max(res.BurstyPeakGrant, bg)
		if r.AtSeconds >= tl.stepUntil && sg >= preStepSteady {
			res.SteadyRestored = true
		}
	}
	return res, nil
}

// Print renders the arc: the grant timeline, both sojourn curves, each
// supervisor's transitions and the scheduler's decision history.
func (r ContentionResult) Print(w io.Writer) {
	header(w, fmt.Sprintf("Contention: two tenants, one pool; Tmax = %.0f ms, surge x%.1f during [%.0fs, %.0fs)",
		r.Tmax*1e3, burstyStepFactor, r.StepFrom, r.StepUntil))
	r.printGrants(w, false)
	r.printTenants(w)
	r.printSchedulerHistory(w)
	fmt.Fprintf(w, "max slots preempted from steady: %d; bursty peak grant: %d\n",
		r.PreemptedSlots, r.BurstyPeakGrant)
	fmt.Fprintf(w, "steady restored to pre-step grant: %v; double-leased slots: %d\n",
		r.SteadyRestored, r.MaxLeaseOverCapacity)
}
