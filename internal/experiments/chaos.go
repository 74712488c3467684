package experiments

import (
	"fmt"
	"io"
	"strings"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/scenario"
)

// The chaos experiment: every stressor the stack knows, layered in one
// scenario-driven arc. Where churn, contention and overload each isolate a
// single failure mode, chaos replays a scenario.Timeline — diurnal and
// flash-crowd arrival envelopes, heavy-tailed (Pareto) service times,
// scripted machine kills, straggler windows, scheduled priority changes
// and a permanent decommission — against N supervised two-stage tenants
// sharing one machine pool behind per-tenant admission gates.
//
// The driver is generic over the spec: every tenant gets the same chain
// (µ = 2/s per stage, Tmax = 1.5 s, floor 4, initial grant 6) and the
// scenario varies the traffic and the infrastructure events around it.
// Machine-targeted events resolve their victims at fire time (the pool's
// IDs come and go with demand): a fail takes the newest live machine, a
// straggler mark takes the oldest healthy one, a decommission fails the
// newest live machine and returns it to the provider, and recoveries and
// straggler clears pair with the event that opened them.
//
// The run is audited at every control round and attributed per phase —
// the timeline's event times segment the arc, and each phase records its
// own lease-over-capacity, placement-violation, queue-drop and shed
// counts. The invariants the arc test locks: no slot double-leased, no
// placement overcommitted, zero admitted tuples lost (overload is shed at
// the door, never dropped in a queue), and the gate's shed ledger equal
// to the simulator's refused-arrival count (the two books agree).
const (
	chaosTmax     = 1.5 // every tenant's latency target, seconds
	chaosSlack    = 0.3 // scale-in slack (wide: hold settled sizes against noise)
	chaosMu       = 2.0 // per-processor service rate, both stages
	chaosSlots    = 4   // slots per machine
	chaosMachines = 5   // provider cap: the 20-slot pool
	chaosInitial  = 6   // every tenant's registration grant, (3:3)
	chaosFloor    = 4   // every tenant's preemption floor
)

// ChaosPhase is one segment of the arc between consecutive timeline
// events, carrying that segment's own invariant audit.
type ChaosPhase struct {
	// From and Until bound the phase in scenario seconds.
	From, Until float64
	// Label names the events that opened the phase.
	Label string
	// Rounds counts the control rounds sampled inside the phase.
	Rounds int
	// MaxLeaseOverCapacity is the phase's worst Leased − Capacity (> 0
	// would mean a slot double-leased inside this phase).
	MaxLeaseOverCapacity int
	// PlacementViolations counts rounds with an inconsistent placement.
	PlacementViolations int
	// Offered, Admitted and Shed are the phase's front-door counts summed
	// over every tenant; Dropped is queue drops (must stay zero — admitted
	// tuples are never lost).
	Offered, Admitted, Shed, Dropped int64
}

// ChaosResult is the scenario-driven arc (Tenants in spec order, each
// behind its own one-client gate) and its claims.
type ChaosResult struct {
	Arc
	// Scenario is the (possibly scaled) spec the run replayed.
	Scenario scenario.Spec
	// Tmax is the shared latency target.
	Tmax float64
	// Phases segments the arc at event times, each with its own audit.
	Phases []ChaosPhase
	// ShedTotal and SimShedTotal are the two shed ledgers (gate clients
	// vs simulator); BooksAgree reports them equal.
	ShedTotal, SimShedTotal int64
	BooksAgree              bool
}

// eventLabel is the short per-phase descriptor of one event.
func eventLabel(ev scenario.Event) string {
	switch ev.Kind {
	case scenario.KindFail, scenario.KindRecover, scenario.KindStragglerOn,
		scenario.KindStragglerOff, scenario.KindDecommission:
		return fmt.Sprintf("%s m%d", ev.Kind, ev.Machine)
	case scenario.KindPriority:
		return fmt.Sprintf("priority %s=%d", ev.Tenant, ev.Priority)
	default:
		return fmt.Sprintf("%s %s", ev.Kind, ev.Tenant)
	}
}

// chaosPhases segments [0, duration) at the timeline's event times.
func chaosPhases(events []scenario.Event, duration float64) []ChaosPhase {
	phases := []ChaosPhase{{From: 0, Label: "start"}}
	for i := 0; i < len(events); {
		at := events[i].At
		j := i
		var labels []string
		for j < len(events) && events[j].At == at {
			labels = append(labels, eventLabel(events[j]))
			j++
		}
		i = j
		if at <= 0 || at >= duration {
			continue
		}
		phases[len(phases)-1].Until = at
		phases = append(phases, ChaosPhase{From: at, Label: strings.Join(labels, ", ")})
	}
	phases[len(phases)-1].Until = duration
	return phases
}

// RunChaos replays the canonical everything-at-once scenario
// (scenario.Chaos): the 24-minute arc the golden file locks.
func RunChaos(o Options) (ChaosResult, error) {
	return RunChaosSpec(scenario.Chaos(), o)
}

// RunChaosSpec replays an arbitrary scenario spec against the full stack.
// A positive Options.Duration scales the whole spec (Spec.Scaled) to that
// horizon — a shorter day, not a gentler one.
func RunChaosSpec(spec scenario.Spec, o Options) (ChaosResult, error) {
	spec = spec.Scaled(o.scale(spec.DurationSeconds))
	tl, err := scenario.Compile(spec)
	if err != nil {
		return ChaosResult{}, err
	}
	duration := spec.DurationSeconds
	res := ChaosResult{Scenario: spec, Tmax: chaosTmax}

	// Every tenant's source follows the timeline's arrival envelope behind
	// the tenant's own ingest.Gate, and its stages serve the timeline's
	// service distribution (exponential, or mean-pinned Pareto for heavy
	// tails).
	arc := arcSpec{name: "chaos", pool: chainPool(chaosSlots, chaosMachines), events: tl.Events()}
	ch := chain{tmax: chaosTmax, slack: chaosSlack}
	for _, ts := range spec.Tenants {
		weight := ts.Weight
		if weight <= 0 {
			weight = 1
		}
		arrivals, err := tl.Arrivals(ts.Name)
		if err != nil {
			return res, err
		}
		service, err := tl.Service(ts.Name, chaosMu)
		if err != nil {
			return res, err
		}
		arc.tenants = append(arc.tenants, ch.tenant(
			cluster.TenantConfig{Name: ts.Name, Priority: ts.Priority, MinSlots: chaosFloor, InitialSlots: chaosInitial},
			service, arcSource{name: ts.Name, weight: weight, arrivals: arrivals}))
	}
	res.Arc, err = runArc(arc, timeline{horizon: duration, enableAt: duration / 8}, o)
	if err != nil {
		return res, err
	}

	res.Phases = chaosPhases(arc.events, duration)
	phase := 0
	var lastDropped int64
	for _, r := range res.Rounds {
		for phase+1 < len(res.Phases) && r.AtSeconds > res.Phases[phase].Until+1e-9 {
			phase++
		}
		ph := &res.Phases[phase]
		ph.Rounds++
		for _, g := range r.Gates {
			ph.Offered += g.Offered
			ph.Admitted += g.Admitted
			ph.Shed += g.Shed
		}
		ph.Dropped += r.Dropped - lastDropped
		lastDropped = r.Dropped
		ph.MaxLeaseOverCapacity = max(ph.MaxLeaseOverCapacity, r.Over)
		if r.BadPlacement {
			ph.PlacementViolations++
		}
	}
	for _, ts := range res.Tenants {
		res.ShedTotal += ts.Clients[0].Shed
		res.SimShedTotal += ts.SimShed
	}
	res.BooksAgree = res.ShedTotal == res.SimShedTotal
	return res, nil
}

// Print renders the arc: the resolved event log, the grant and admission
// timelines, each tenant's sojourn curve and transitions, the per-phase
// invariant audit and the scheduler's decision history.
func (r ChaosResult) Print(w io.Writer) {
	header(w, fmt.Sprintf("Chaos: scenario %q, %d tenants over %.0fs; Tmax = %.0f ms",
		r.Scenario.Name, len(r.Tenants), r.Scenario.DurationSeconds, r.Tmax*1e3))
	fmt.Fprintln(w, "timeline (fire-time resolved):")
	for _, line := range r.Applied {
		fmt.Fprintf(w, "  %s\n", line)
	}
	r.printGrants(w, true)
	for _, ts := range r.Tenants {
		printCurve(w, ts.Name, ts.Series)
		ts.printTransitions(w)
	}
	fmt.Fprintf(w, "%-40s %11s %6s %5s %5s %8s %8s %7s %5s\n",
		"phase", "window", "rounds", "over", "viol", "offered", "admitted", "shed", "drop")
	for _, ph := range r.Phases {
		fmt.Fprintf(w, "%-40s %4.0f-%5.0fs %6d %5d %5d %8d %8d %7d %5d\n",
			ph.Label, ph.From, ph.Until, ph.Rounds, ph.MaxLeaseOverCapacity,
			ph.PlacementViolations, ph.Offered, ph.Admitted, ph.Shed, ph.Dropped)
	}
	fmt.Fprintf(w, "%-8s %7s %10s %10s %10s %7s %6s\n",
		"tenant", "weight", "offered", "admitted", "shed", "shed%", "lost")
	for _, ts := range r.Tenants {
		ts.Clients[0].print(w)
		fmt.Fprintf(w, " %6d\n", ts.SlotsLost)
	}
	r.printSchedulerHistory(w)
	fmt.Fprintf(w, "books agree (gate shed %d == sim shed %d): %v\n",
		r.ShedTotal, r.SimShedTotal, r.BooksAgree)
	fmt.Fprintf(w, "double-leased slots: %d; placement violations: %d; dropped tuples: %d; pending at end: %d\n",
		r.MaxLeaseOverCapacity, r.PlacementViolations, r.DroppedTuples, r.PendingAtEnd)
}
