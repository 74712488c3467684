package experiments

import (
	"fmt"
	"io"
	"math"

	"github.com/drs-repro/drs/internal/scenario"
	"github.com/drs-repro/drs/internal/sim"
)

// The machine-churn experiment: the contention setting made lossy. Two
// supervised tenants share one machine pool through the cluster Scheduler;
// mid-way through the bursty tenant's surge, two machines crash (a
// scripted MTTR-style outage) and the whole stack must ride it out: the
// scheduler re-arbitrates out of band against
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

// churnPaper is the churn timeline: contention's 27 minutes, enable point
// and surge window, plus a 2-minute outage starting at minute 11.
var churnPaper = timeline{
	horizon: 27 * 60, enableAt: 3 * 60, stepFrom: 9 * 60, stepUntil: 18 * 60,
	killAt: 11 * 60, killDown: 2 * 60,
}

// ChurnResult is the failure arc (Tenants and Grants in the order steady,
// bursty) and its claims.
type ChurnResult struct {
	Arc
	// Tmax is the (shared) latency target.
	Tmax float64
	// StepFrom and StepUntil bound the bursty tenant's surge window.
	StepFrom, StepUntil float64
	// KillAt and RecoverAt bound the two-machine outage.
	KillAt, RecoverAt float64
	// ReplacementNegotiated reports whether the scheduler provisioned a
	// fresh machine during the outage (the within-cap replacement).
	ReplacementNegotiated bool
	// FailoverShrinks and PreemptShrinks count the supervisors' forced
	// re-fits by cause.
	FailoverShrinks, PreemptShrinks int
	// ConvergedAtSeconds is the start of the first post-kill minute from
	// which both tenants stay under Tmax through the rest of the surge
	// window; RecoverySeconds counts from machine recovery to there.
	ConvergedAtSeconds, RecoverySeconds float64
}

// RunChurn runs the machine-failure experiment.
func RunChurn(o Options) (ChurnResult, error) {
	tl := churnPaper.at(o)
	res := ChurnResult{Tmax: churnTmax, StepFrom: tl.stepFrom, StepUntil: tl.stepUntil,
		KillAt: tl.killAt, RecoverAt: tl.killAt + tl.killDown}
	ch := chain{tmax: churnTmax, slack: churnSlack}
	spec := arcSpec{
		name: "churn", pool: chainPool(churnSlots, churnMachines),
		tenants: []arcTenantSpec{
			ch.exp("steady", 0, churnFloor, churnInitial, churnMu, sim.PoissonArrivals{Rate: churnBaseRate}),
			ch.exp("bursty", 1, churnFloor, churnInitial, churnMu, tl.step(churnBaseRate, churnStepFactor)),
		},
	}
	// The outage schedule, in time order: both kills, then both
	// recoveries. The Machine fields are nominal: the arc resolves each
	// kill to the newest live machine at fire time, and each recovery to
	// the machine its kill took.
	spec.events = append(spec.events,
		scenario.Event{At: res.KillAt, Kind: scenario.KindFail, Machine: 0},
		scenario.Event{At: res.KillAt, Kind: scenario.KindFail, Machine: 1},
		scenario.Event{At: res.RecoverAt, Kind: scenario.KindRecover, Machine: 0},
		scenario.Event{At: res.RecoverAt, Kind: scenario.KindRecover, Machine: 1})
	var err error
	if res.Arc, err = runArc(spec, tl, o); err != nil {
		return res, err
	}
	for _, ev := range res.SchedulerHistory {
		at := ev.At.Sub(simEpoch).Seconds()
		if ev.Kind == "pool" && ev.Detail == "scale-out" && at >= res.KillAt && at < res.RecoverAt {
			res.ReplacementNegotiated = true
		}
	}
	for _, ts := range res.Tenants {
		for _, tr := range ts.Transitions {
			switch {
			case tr.SlotsLost:
				res.FailoverShrinks++
			case tr.Preempted:
				res.PreemptShrinks++
			}
		}
	}
	res.ConvergedAtSeconds, res.RecoverySeconds = churnConvergence(res)
	return res, nil
}

// churnConvergence finds, within the surge window, the first post-kill
// minute from which both tenants stay at or under Tmax for the rest of the
// window. A minute with no completions counts as violating — a stalled
// tenant is not a converged one.
func churnConvergence(res ChurnResult) (convergedAt, recovery float64) {
	lastBad := -1.0
	for _, ts := range res.Tenants {
		for _, pt := range window(ts.Series, res.KillAt, res.StepUntil) {
			if math.IsNaN(pt.MeanSojourn) || pt.MeanSojourn > res.Tmax {
				lastBad = math.Max(lastBad, pt.Start)
			}
		}
	}
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
	r.printGrants(w, true)
	r.printTenants(w)
	r.printSchedulerHistory(w)
	fmt.Fprintf(w, "killed machines %v; replacement negotiated within cap: %v\n",
		r.Killed, r.ReplacementNegotiated)
	fmt.Fprintf(w, "slots lost to failures: steady=%d bursty=%d; failover shrinks: %d; preempt shrinks: %d\n",
		r.Tenants[0].SlotsLost, r.Tenants[1].SlotsLost, r.FailoverShrinks, r.PreemptShrinks)
	fmt.Fprintf(w, "re-converged under Tmax at t=%.0fs (%.0fs after recovery)\n",
		r.ConvergedAtSeconds, r.RecoverySeconds)
	fmt.Fprintf(w, "double-leased slots: %d; placement violations: %d; dropped tuples: %d; pending at end: %d\n",
		r.MaxLeaseOverCapacity, r.PlacementViolations, r.DroppedTuples, r.PendingAtEnd)
}
