package experiments

import (
	"fmt"
	"io"
	"math"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/ingest"
	"github.com/drs-repro/drs/internal/loop"
	"github.com/drs-repro/drs/internal/sim"
	"github.com/drs-repro/drs/internal/stats"
)

// The overload experiment: the shedding study (`drs-experiments shedding`)
// made closed-loop. Where that study compares three *static* responses to
// overload, this one runs the live control stack end to end in virtual
// time: two clients offer traffic through the DRS admission policy
// (ingest.PlanAdmission — the same code the network gate runs), the
// admitted stream feeds a supervised two-stage tenant, and the
// offered-vs-admitted split flows through the interval reports so the
// Supervisor provisions against *true demand* rather than the post-shed
// remainder.
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

// overloadClient is one virtual-time traffic source behind the admission
// gate: the sim source's Admit hook applies the live gate's thinning
// verdict (ingest.ThinAdmit), driven by the per-round plan.
type overloadClient struct {
	name     string
	weight   float64
	seq      uint64
	permille uint32
	offered  int64
	admitted int64
	shed     int64
	// lastOffered / lastAdmitted / lastShed are the previous replan
	// round's readings.
	lastOffered, lastAdmitted, lastShed int64
}

// admit is the sim-side twin of ingest's Offer fast path: the same
// thinning verdict, minus the network.
func (c *overloadClient) admit(float64) bool {
	c.offered++
	if p := c.permille; p < 1000 {
		c.seq++
		if !ingest.ThinAdmit(c.seq, p) {
			c.shed++
			return false
		}
	}
	c.admitted++
	return true
}

// gateRound is one replan round's front-door reading: the plan put in
// force for the next round, and what the clients offered, got admitted
// and had shed since the previous one.
type gateRound struct {
	plan                      ingest.Plan
	offeredRate, admittedRate float64 // tuples/s over the round
	offered, admitted, shed   int64   // record deltas over the round
}

// replan re-aims the clients' admission exactly as the live gate does
// each round: read the supervisor's latest (demand-scaled) snapshot, size
// the sustainable rate for maxSlots under tmax, and split it by client
// weight.
func replan(clients []*overloadClient, sup *loop.Supervisor, tmax float64, maxSlots int) gateRound {
	var g gateRound
	rates := make([]float64, len(clients))
	weights := make([]float64, len(clients))
	ids := make([]string, len(clients))
	for i, c := range clients {
		rates[i] = float64(c.offered-c.lastOffered) / arcInterval
		g.offeredRate += rates[i]
		g.admittedRate += float64(c.admitted-c.lastAdmitted) / arcInterval
		g.offered += c.offered - c.lastOffered
		g.admitted += c.admitted - c.lastAdmitted
		g.shed += c.shed - c.lastShed
		c.lastOffered, c.lastAdmitted, c.lastShed = c.offered, c.admitted, c.shed
		weights[i], ids[i] = c.weight, c.name
	}
	g.plan = ingest.Plan{AdmitFraction: 1, SustainableRate: g.offeredRate, ScaleOutViable: true}
	if snap, ok := sup.LastSnapshot(); ok {
		// The gate's default 10% headroom: plan against a tightened
		// target so the admitted traffic keeps a noise margin below
		// the hard limit.
		g.plan = ingest.PlanAdmission(snap, tmax*0.9, maxSlots, g.offeredRate)
	}
	for i, p := range ingest.AdmitPermilles(g.plan, weights, ids, rates) {
		clients[i].permille = p
	}
	return g
}

// OverloadPoint samples the front door once per control round.
type OverloadPoint struct {
	// AtSeconds is the simulated time of the sample.
	AtSeconds float64
	// OfferedRate and AdmittedRate are tuples/s over the round.
	OfferedRate, AdmittedRate float64
	// AdmitFraction is the plan in force for the next round.
	AdmitFraction float64
	// ScaleOutViable is the Appendix-B guard verdict of that plan.
	ScaleOutViable bool
	// Grant and Capacity are the tenant's slots and the pool's total.
	Grant, Capacity int
}

// OverloadClientStats summarizes one client's run.
type OverloadClientStats struct {
	// Name and Weight identify the client.
	Name   string
	Weight float64
	// Offered, Admitted and Shed are cumulative record counts.
	Offered, Admitted, Shed int64
	// ShedFraction is Shed/Offered.
	ShedFraction float64
}

// OverloadResult carries the full arc of the admission-controlled run.
type OverloadResult struct {
	// Tmax is the latency target.
	Tmax float64
	// StepFrom and StepUntil bound bronze's surge window.
	StepFrom, StepUntil float64
	// Series is the per-minute sojourn curve of admitted tuples.
	Series []sim.SeriesPoint
	// Points samples the front door once per control round.
	Points []OverloadPoint
	// Transitions are the supervisor's applied decisions.
	Transitions []Transition
	// Clients summarizes gold and bronze.
	Clients []OverloadClientStats
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
	// DroppedTuples and PendingAtEnd audit the zero-admitted-loss claim:
	// queue drops (none — queues are unbounded; overload is handled at the
	// door) and processing trees unresolved at the end.
	DroppedTuples, PendingAtEnd int64
	// ShedTotal is the simulator's own count of gate-refused arrivals; it
	// must equal the clients' Shed sum (the two books agree).
	ShedTotal int64
}

// RunOverload runs the admission-control experiment: 27 simulated minutes,
// controller enabled from minute 3, bronze surging ×16 between minutes 9
// and 18.
func RunOverload(o Options) (OverloadResult, error) {
	o = o.withDefaults()
	duration := 27 * 60.0
	enableAt := 3 * 60.0
	stepFrom, stepUntil := 9*60.0, 18*60.0
	if o.Duration != 600 { // scaled-down run (benchmarks, quick tests)
		duration = o.Duration
		enableAt = duration / 9
		stepFrom, stepUntil = duration/3, 2*duration/3
	}
	res := OverloadResult{Tmax: overloadTmax, StepFrom: stepFrom, StepUntil: stepUntil}

	gold := &overloadClient{name: "gold", weight: goldWeight, permille: 1000}
	bronze := &overloadClient{name: "bronze", weight: bronzeWeight, permille: 1000}
	a, err := newArc("overload", overloadSlots, overloadMachines, nil)
	if err != nil {
		return res, err
	}
	front, err := a.tenant(cluster.TenantConfig{Name: "front", MinSlots: 2, InitialSlots: overloadInitial},
		twoStageParams{service: stats.Exponential{Rate: overloadMu}, tmax: overloadTmax, slack: overloadSlack},
		o.Seed,
		sim.SourceSpec{Arrivals: sim.PoissonArrivals{Rate: overloadGoldRate}, Admit: gold.admit},
		sim.SourceSpec{Arrivals: &sim.SteppedRate{
			Base:   sim.PoissonArrivals{Rate: overloadBronzeRate},
			Factor: overloadStepFactor, From: stepFrom, Until: stepUntil,
		}, Admit: bronze.admit})
	if err != nil {
		return res, err
	}

	clients := []*overloadClient{gold, bronze}
	err = a.run(duration, enableAt, func(r arcRound) {
		g := replan(clients, front.sup, overloadTmax, overloadSlots*overloadMachines)
		pt := OverloadPoint{
			AtSeconds:      r.t,
			OfferedRate:    g.offeredRate,
			AdmittedRate:   g.admittedRate,
			AdmitFraction:  g.plan.AdmitFraction,
			ScaleOutViable: g.plan.ScaleOutViable,
			Grant:          front.lease.Kmax(),
			Capacity:       r.st.Capacity,
		}
		res.Points = append(res.Points, pt)
		res.PeakGrant = max(res.PeakGrant, pt.Grant)
		if r.t >= stepFrom && r.t < stepUntil && g.plan.AdmitFraction < 1 {
			res.ShedDuringSurge = true
			if !g.plan.ScaleOutViable {
				res.PersistentShedSeen = true
			}
		}
		if r.t >= stepUntil && g.plan.AdmitFraction >= 1 {
			res.AdmitAllRestored = true
		}
	})
	if err != nil {
		return res, err
	}
	res.Series = front.s.Series()
	res.Transitions = transitionsFrom(front.sup)
	for _, c := range clients {
		cs := OverloadClientStats{Name: c.name, Weight: c.weight,
			Offered: c.offered, Admitted: c.admitted, Shed: c.shed}
		if c.offered > 0 {
			cs.ShedFraction = float64(c.shed) / float64(c.offered)
		}
		res.Clients = append(res.Clients, cs)
		res.ShedTotal += c.shed
	}
	res.DroppedTuples = front.dropped()
	res.PendingAtEnd = front.s.PendingRoots()
	for _, pt := range res.Series {
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
	row := func(name string, f func(OverloadPoint) string) {
		fmt.Fprintf(w, "%-22s", name)
		for i, pt := range r.Points {
			if i%6 != 5 { // 10 s rounds -> one column per minute
				continue
			}
			fmt.Fprintf(w, "%7s", f(pt))
		}
		fmt.Fprintln(w)
	}
	row("offered (tuples/s)", func(p OverloadPoint) string { return fmt.Sprintf("%.1f", p.OfferedRate) })
	row("admitted (tuples/s)", func(p OverloadPoint) string { return fmt.Sprintf("%.1f", p.AdmittedRate) })
	row("admit fraction", func(p OverloadPoint) string { return fmt.Sprintf("%.2f", p.AdmitFraction) })
	row("grant (slots)", func(p OverloadPoint) string { return fmt.Sprintf("%d/%d", p.Grant, p.Capacity) })
	printSojournCurve(w, "admitted", r.Series)
	fmt.Fprintf(w, "%-8s %7s %10s %10s %10s %7s\n", "client", "weight", "offered", "admitted", "shed", "shed%")
	for _, c := range r.Clients {
		fmt.Fprintf(w, "%-8s %7.0f %10d %10d %10d %6.1f%%\n",
			c.Name, c.Weight, c.Offered, c.Admitted, c.Shed, c.ShedFraction*100)
	}
	fmt.Fprintln(w, "supervisor transitions:")
	for _, tr := range r.Transitions {
		kind := ""
		if tr.Preempted {
			kind = " [preempted]"
		}
		fmt.Fprintf(w, "  t=%5.0fs %-9s -> %v Kmax=%d pause=%.1fs%s (%s)\n",
			tr.AtSeconds, tr.Action, tr.Alloc, tr.Kmax, tr.PauseSeconds, kind, tr.Reason)
	}
	fmt.Fprintf(w, "shed during surge: %v (persistent at the cap: %v); admit-all restored after surge: %v\n",
		r.ShedDuringSurge, r.PersistentShedSeen, r.AdmitAllRestored)
	fmt.Fprintf(w, "peak grant %d slots; final E[T] %.0f ms under Tmax: %v; dropped %d, pending at end %d\n",
		r.PeakGrant, r.FinalSojournMillis, r.FinalUnderTmax, r.DroppedTuples, r.PendingAtEnd)
}
