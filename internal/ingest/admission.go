package ingest

import (
	"errors"

	"github.com/drs-repro/drs/internal/core"
)

// stabilityRho is the utilization ceiling of the fallback admission bound:
// when the latency model cannot price the target (Tmax below the
// service-time floor), admission still protects the data plane by keeping
// every operator below this load factor.
const stabilityRho = 0.95

// Plan is one replanning round's cluster-level admission verdict: what
// Gate.Replan puts in force, whether the gate fronts a live node or a
// virtual-time arc, and what GateStats echoes.
type Plan struct {
	// SustainableRate is the largest admitted external rate (tuples/s) the
	// *current* grant is predicted to hold under Tmax, per the Eq. 3 model
	// at the snapshot's rate ratios.
	SustainableRate float64
	// AdmitFraction is min(1, SustainableRate/offered): the share of
	// offered load to admit this round. 1 means admit everything.
	AdmitFraction float64
	// ScaleOutViable is the Appendix-B guard verdict at the provider cap:
	// true when MinProcessors(Tmax) at the full offered demand fits within
	// maxSlots, i.e. scale-out can absorb the overload and the shed is a
	// transient while machines provision; false when even the whole
	// provider cannot serve what clients are offering, so the shed is
	// persistent until demand recedes.
	ScaleOutViable bool
}

// headroom tightens the planning target to Tmax·(1−headroom): the admitted
// traffic keeps a noise margin below the hard limit.
const headroom = 0.1

// planAdmission computes the admission plan from the supervisor's latest
// control snapshot. snap carries the measured (admitted) rates, the
// allocation in force and the granted budget Kmax; tmax is the hard
// latency target, planned against with the headroom above; offeredRate is
// the external rate clients are currently offering; maxSlots is the
// provider cap (0 = uncapped). The policy is the DRS model turned into a
// front door: one core.Model of the snapshot per plan, asked what the
// offered demand needs (Model.NeedAt) and, when that exceeds the grant,
// the largest demand scaling whose Program (6) allocation still fits it
// (Model.MaxScale) — admit exactly that much. On any model failure it
// fails open (admit all) — shedding must be justified by the model, never
// by its absence.
func planAdmission(snap core.Snapshot, tmax float64, maxSlots int, offeredRate float64) Plan {
	admitAll := Plan{SustainableRate: offeredRate, AdmitFraction: 1, ScaleOutViable: true}
	if tmax <= 0 || offeredRate <= 0 || snap.Lambda0 <= 0 || len(snap.Ops) == 0 || snap.Kmax <= 0 {
		return admitAll
	}
	tmax *= 1 - headroom
	base, err := core.NewModel(snap.Lambda0, snap.Ops)
	if err != nil {
		return admitAll
	}
	demandScale := max(snap.OfferedLambda0/snap.Lambda0, offeredRate/snap.Lambda0, 1)
	var probe core.Model // the plan's scratch: every probe re-points it
	need, err := probe.NeedAt(base, demandScale, tmax)
	switch {
	case errors.Is(err, core.ErrUnreachableTarget):
		// Tmax is below the service-time floor: no allocation — and no
		// amount of shedding — reaches it. Fall back to a pure stability
		// bound so overload still cannot grow the queues without bound.
		return stabilityPlan(snap, offeredRate)
	case err != nil:
		return admitAll
	}
	viable := maxSlots <= 0 || need <= maxSlots
	if need <= snap.Kmax {
		admitAll.ScaleOutViable = viable
		return drainCorrected(snap, tmax, admitAll)
	}
	// The grant cannot hold the offered demand: admit the largest demand
	// scaling it can hold.
	sustainable := probe.MaxScale(base, tmax, snap.Kmax, demandScale) * snap.Lambda0
	return drainCorrected(snap, tmax,
		Plan{SustainableRate: sustainable, AdmitFraction: min(sustainable/offeredRate, 1), ScaleOutViable: viable})
}

// drainCorrected applies the backlog-drain feedback: the sustainable rate
// is a *steady-state* quantity, but right after an overload transient (or
// a rebalance pause) a queue backlog is still draining and the measured
// sojourn violates the target even at an admissible rate. While it does,
// scale admission down by target/measured so the backlog drains at least
// as fast as it built — the correction vanishes exactly when the measured
// latency is back under the target.
func drainCorrected(snap core.Snapshot, tmax float64, p Plan) Plan {
	if snap.MeasuredSojourn <= tmax || p.AdmitFraction <= 0 {
		return p
	}
	drain := tmax / snap.MeasuredSojourn
	p.AdmitFraction *= drain
	p.SustainableRate *= drain
	return p
}

// stabilityPlan bounds admission by operator stability alone: the largest
// demand scaling keeping every operator's utilization under stabilityRho
// at the allocation in force.
func stabilityPlan(snap core.Snapshot, offeredRate float64) Plan {
	if len(snap.Alloc) != len(snap.Ops) {
		return Plan{SustainableRate: offeredRate, AdmitFraction: 1, ScaleOutViable: false}
	}
	scale := 0.0
	for i, op := range snap.Ops {
		if op.Lambda <= 0 || op.Mu <= 0 || snap.Alloc[i] < 1 {
			continue
		}
		s := stabilityRho * float64(snap.Alloc[i]) * op.Mu / op.Lambda
		if scale == 0 || s < scale {
			scale = s
		}
	}
	if scale == 0 {
		return Plan{SustainableRate: offeredRate, AdmitFraction: 1, ScaleOutViable: false}
	}
	sustainable := scale * snap.Lambda0
	frac := sustainable / offeredRate
	if frac > 1 {
		frac = 1
	}
	return Plan{SustainableRate: sustainable, AdmitFraction: frac, ScaleOutViable: false}
}
