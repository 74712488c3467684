package experiments

import (
	"fmt"
	"io"
	"math"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/sim"
	"github.com/drs-repro/drs/internal/stats"
)

// The overload experiment: the shedding study (`drs-experiments shedding`)
// made closed-loop. Where that study compares three *static* responses to
// overload, this one runs the live control stack end to end in virtual
// time: two clients offer traffic through the live front door's
// ingest.Gate, whose shed policy is the DRS model, the admitted stream
// feeds a supervised two-stage tenant, and the offered-vs-admitted split
// flows through the interval reports so the Supervisor provisions against
// *true demand* rather than the post-shed remainder.
//
// Both stages serve µ = 2/s per processor under Tmax = 1.5 s on 4-slot
// machines with a 4-machine provider cap (16 slots):
//
//   - "gold" (weight 4) offers a steady 2/s.
//   - "bronze" (weight 1) offers 1/s, stepped ×16 to 16/s mid-run.
//
// At the 18/s peak Program (6) wants 22 slots — beyond the cap, so the
// Appendix-B guard says scale-out cannot fully pay off and the shed is
// persistent: the gate admits what 16 slots hold under Tmax (≈13/s,
// (8:8)) and sheds the rest lowest-weight-first, so bronze absorbs
// essentially all of it while gold rides through untouched.
//
// Expected arc: settle at 6 slots → surge: predicted sojourn at offered
// demand blows through Tmax, the supervisor scales to the 16-slot cap
// (partial grant of its 22-slot request) while the gate sheds the excess
// with explicit backpressure → at the cap, shedding stabilizes at the
// sustainable rate — bounded latency for everything admitted, demand
// still measured in full — → surge ends: the gate returns to admit-all,
// the supervisor scales back in, and the run ends converged under Tmax
// with zero admitted tuples lost.
const (
	overloadTmax       = 1.5  // the latency target, seconds
	overloadSlack      = 0.3  // scale-in slack (wide: hold the settled size against noise)
	overloadMu         = 2.0  // per-processor service rate, both stages
	overloadGoldRate   = 2.0  // gold's offered rate throughout
	overloadBronzeRate = 1.0  // bronze's offered rate outside the surge
	overloadStepFactor = 16.0 // bronze's rate multiplier inside the surge
	overloadSlots      = 4    // slots per machine
	overloadMachines   = 4    // provider cap: 16 slots
	overloadInitial    = 6    // registration grant, (3:3)
	goldWeight         = 4.0  // gold sheds last
	bronzeWeight       = 1.0
)

// overloadPaper is the overload timeline: 27 simulated minutes,
// controller enabled from minute 3, bronze surging between minutes 9 and 18.
var overloadPaper = timeline{horizon: 27 * 60, enableAt: 3 * 60, stepFrom: 9 * 60, stepUntil: 18 * 60}

// OverloadResult is the admission-controlled arc — one tenant, "front",
// behind the gate of clients gold and bronze — and its claims.
type OverloadResult struct {
	Arc
	// Tmax is the latency target.
	Tmax float64
	// StepFrom and StepUntil bound bronze's surge window.
	StepFrom, StepUntil float64
	// PeakGrant is the largest grant the tenant held (the cap, if the
	// scale-out completed).
	PeakGrant int
	// ShedDuringSurge reports whether the gate shed inside the window.
	ShedDuringSurge bool
	// PersistentShedSeen reports a round whose plan found scale-out
	// non-viable (the cap cannot absorb offered demand) while shedding.
	PersistentShedSeen bool
	// AdmitAllRestored reports the plan returning to admit-everything
	// after the surge window closed.
	AdmitAllRestored bool
	// FinalSojournMillis is the last series bucket with data, and
	// FinalUnderTmax whether it is back under the target.
	FinalSojournMillis float64
	FinalUnderTmax     bool
}

// RunOverload runs the admission-control experiment.
func RunOverload(o Options) (OverloadResult, error) {
	tl := overloadPaper.at(o)
	res := OverloadResult{Tmax: overloadTmax, StepFrom: tl.stepFrom, StepUntil: tl.stepUntil}
	var err error
	res.Arc, err = runArc(arcSpec{
		name: "overload", pool: chainPool(overloadSlots, overloadMachines),
		tenants: []arcTenantSpec{chain{tmax: overloadTmax, slack: overloadSlack}.tenant(
			cluster.TenantConfig{Name: "front", MinSlots: 2, InitialSlots: overloadInitial},
			stats.Exponential{Rate: overloadMu},
			arcSource{name: "gold", weight: goldWeight, arrivals: sim.PoissonArrivals{Rate: overloadGoldRate}},
			arcSource{name: "bronze", weight: bronzeWeight, arrivals: tl.step(overloadBronzeRate, overloadStepFactor)},
		)},
	}, tl, o)
	if err != nil {
		return res, err
	}
	for _, r := range res.Rounds {
		plan := r.Gates[0].Plan
		res.PeakGrant = max(res.PeakGrant, r.Grants[0])
		if r.AtSeconds >= tl.stepFrom && r.AtSeconds < tl.stepUntil && plan.AdmitFraction < 1 {
			res.ShedDuringSurge = true
			if !plan.ScaleOutViable {
				res.PersistentShedSeen = true
			}
		}
		if r.AtSeconds >= tl.stepUntil && plan.AdmitFraction >= 1 {
			res.AdmitAllRestored = true
		}
	}
	for _, pt := range res.Tenants[0].Series {
		if !math.IsNaN(pt.MeanSojourn) {
			res.FinalSojournMillis = pt.MeanSojourn * 1e3
		}
	}
	res.FinalUnderTmax = res.FinalSojournMillis > 0 && res.FinalSojournMillis <= overloadTmax*1e3
	return res, nil
}

// Print renders the arc: the offered/admitted/grant timeline, the sojourn
// curve of admitted tuples, the client split and the supervisor's
// transitions.
func (r OverloadResult) Print(w io.Writer) {
	header(w, fmt.Sprintf("Overload, closed-loop: ingest admission in front of one supervised tenant; Tmax = %.0f ms, bronze x%.0f during [%.0fs, %.0fs)",
		r.Tmax*1e3, overloadStepFactor, r.StepFrom, r.StepUntil))
	row := func(name string, f func(ArcRound) string) {
		fmt.Fprintf(w, "%-22s", name)
		for i, pt := range r.Rounds {
			if i%6 != 5 { // 10 s rounds -> one column per minute
				continue
			}
			fmt.Fprintf(w, "%7s", f(pt))
		}
		fmt.Fprintln(w)
	}
	row("offered (tuples/s)", func(p ArcRound) string { return fmt.Sprintf("%.1f", p.Gates[0].OfferedRate) })
	row("admitted (tuples/s)", func(p ArcRound) string { return fmt.Sprintf("%.1f", p.Gates[0].AdmittedRate) })
	row("admit fraction", func(p ArcRound) string { return fmt.Sprintf("%.2f", p.Gates[0].Plan.AdmitFraction) })
	row("grant (slots)", func(p ArcRound) string { return fmt.Sprintf("%d/%d", p.Grants[0], p.Capacity) })
	front := r.Tenants[0]
	printCurve(w, "admitted", front.Series)
	fmt.Fprintf(w, "%-8s %7s %10s %10s %10s %7s\n", "client", "weight", "offered", "admitted", "shed", "shed%")
	for _, c := range front.Clients {
		c.print(w)
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "supervisor transitions:")
	for _, tr := range front.Transitions {
		kind := ""
		if tr.Preempted {
			kind = " [preempted]"
		}
		fmt.Fprintf(w, "  t=%5.0fs %-9s -> %v Kmax=%d pause=%.1fs%s (%s)\n",
			simSeconds(tr.At), tr.Action, tr.Target, tr.Kmax, tr.Pause.Seconds(), kind, tr.Reason)
	}
	fmt.Fprintf(w, "shed during surge: %v (persistent at the cap: %v); admit-all restored after surge: %v\n",
		r.ShedDuringSurge, r.PersistentShedSeen, r.AdmitAllRestored)
	fmt.Fprintf(w, "peak grant %d slots; final E[T] %.0f ms under Tmax: %v; dropped %d, pending at end %d\n",
		r.PeakGrant, r.FinalSojournMillis, r.FinalUnderTmax, r.DroppedTuples, r.PendingAtEnd)
}
