// Package scenario is the trace-driven workload/chaos factory: one
// declarative, seeded Spec composes every stressor the stack knows —
// arrival shapes (diurnal sinusoids, flash crowds, correlated multi-tenant
// surges), heavy-tailed (Pareto) service times, machine churn (scripted
// kills), straggler storms, decommissions and scheduled priority
// changes — into a single deterministic Timeline that both substrates
// replay: the discrete-event simulator drives it in virtual time (the
// `drs-experiments chaos` arc) and `ingestload -trace` replays the same
// arrival envelopes against a live `drsctl serve` front door, so every
// simulated scenario has a live-socket twin.
//
// Everything is a pure function of (Spec, Seed): compiling the same spec
// twice yields byte-identical event timelines, which is what lets the
// chaos experiment be golden-locked and the property tests assert
// determinism. Specs load from strict JSON (Parse/Load, the
// topology.Parse idiom: unknown fields, NaN/Inf rates and overlapping
// kill windows are rejected at the door, never at replay time).
package scenario

import (
	"fmt"
	"math"
	"sort"

	"github.com/drs-repro/drs/internal/sim"
	"github.com/drs-repro/drs/internal/stats"
)

// Spec is the declarative description of one scenario. All times are in
// scenario seconds from t = 0; DurationSeconds is the horizon everything
// must fit under.
type Spec struct {
	// Name identifies the scenario in reports and golden files.
	Name string `json:"name"`
	// Seed makes every derived trace reproducible (0 is a valid seed).
	Seed uint64 `json:"seed"`
	// DurationSeconds is the scenario horizon.
	DurationSeconds float64 `json:"duration_seconds"`
	// Tenants lists the traffic sources.
	Tenants []TenantSpec `json:"tenants"`
	// Surges are correlated multi-tenant load surges — one flash crowd
	// hitting several tenants at once (with optional seeded per-tenant
	// start jitter), the "everyone piles on together" shape no
	// single-tenant window can express.
	Surges []MultiSurgeSpec `json:"surges,omitempty"`
	// Churn schedules machine failures.
	Churn ChurnSpec `json:"churn,omitempty"`
	// Stragglers schedules degraded-machine windows (cluster
	// MarkStraggler storms).
	Stragglers []StragglerSpec `json:"stragglers,omitempty"`
	// Policy schedules tenant priority changes.
	Policy []PolicySpec `json:"policy,omitempty"`
	// Decommissions retires machines permanently at a point in time; a
	// kill or straggler window that runs past its machine's decommission
	// is rejected.
	Decommissions []DecommissionSpec `json:"decommissions,omitempty"`
}

// TenantSpec describes one tenant's offered workload.
type TenantSpec struct {
	// Name identifies the tenant; unique within the spec.
	Name string `json:"name"`
	// Weight is the admission-shedding weight (higher sheds last;
	// 0 defaults to 1).
	Weight float64 `json:"weight,omitempty"`
	// Priority is the tenant's initial preemption rank.
	Priority int `json:"priority,omitempty"`
	// BaseRate is the tenant's long-run offered rate λ0 in tuples/s.
	BaseRate float64 `json:"base_rate"`
	// Diurnal modulates the rate with a sinusoid (nil = flat).
	Diurnal *DiurnalSpec `json:"diurnal,omitempty"`
	// Surges are this tenant's own flash-crowd windows.
	Surges []SurgeSpec `json:"flash_crowds,omitempty"`
	// ServiceTailAlpha, when > 1, swaps the tenant chain's exponential
	// service times for a Pareto with the same mean and this tail
	// exponent — heavy-tailed per-tuple cost (straggler tuples). 0 keeps
	// exponential service.
	ServiceTailAlpha float64 `json:"service_tail_alpha,omitempty"`
}

// DiurnalSpec is a sinusoidal rate envelope: rate(t) = base ·
// (1 + Amplitude·sin(2πt/Period)) — the compressed "day" of a diurnal
// traffic curve, starting at the mean and rising.
type DiurnalSpec struct {
	// PeriodSeconds is the length of one full cycle.
	PeriodSeconds float64 `json:"period_seconds"`
	// Amplitude in [0, 1) scales the swing; 1 would touch zero rate.
	Amplitude float64 `json:"amplitude"`
}

// SurgeSpec is one flash-crowd window: the tenant's rate is multiplied by
// Factor inside [From, Until).
type SurgeSpec struct {
	// From and Until bound the window in scenario seconds.
	From  float64 `json:"from_seconds"`
	Until float64 `json:"until_seconds"`
	// Factor scales the rate inside the window (> 0; > 1 is a surge,
	// < 1 a lull).
	Factor float64 `json:"factor"`
}

// MultiSurgeSpec is a correlated surge across several tenants.
type MultiSurgeSpec struct {
	// Tenants names the affected tenants (all must exist).
	Tenants []string `json:"tenants"`
	// From, Until and Factor are as in SurgeSpec.
	From   float64 `json:"from_seconds"`
	Until  float64 `json:"until_seconds"`
	Factor float64 `json:"factor"`
	// JitterSeconds staggers each tenant's window start by a seeded
	// uniform draw in [0, Jitter) — flash crowds land together but not in
	// lock-step.
	JitterSeconds float64 `json:"jitter_seconds,omitempty"`
}

// ChurnSpec schedules machine failures as scripted kills.
type ChurnSpec struct {
	// Kills are scripted outages with exact timing.
	Kills []KillSpec `json:"kills,omitempty"`
}

// KillSpec is one scripted outage.
type KillSpec struct {
	// Machine is the target machine ID (experiments may resolve it
	// against the live pool at fire time).
	Machine int `json:"machine"`
	// At is the failure time; Down the outage length (seconds).
	At   float64 `json:"at_seconds"`
	Down float64 `json:"down_seconds"`
}

// StragglerSpec marks a machine degraded-but-alive inside a window.
type StragglerSpec struct {
	// Machine is the target machine ID.
	Machine int `json:"machine"`
	// From and Until bound the degraded window.
	From  float64 `json:"from_seconds"`
	Until float64 `json:"until_seconds"`
}

// PolicySpec is one scheduled priority change.
type PolicySpec struct {
	// At is when the change applies.
	At float64 `json:"at_seconds"`
	// Tenant names the affected tenant.
	Tenant string `json:"tenant"`
	// Priority is the new preemption rank.
	Priority int `json:"priority"`
}

// DecommissionSpec retires a machine permanently.
type DecommissionSpec struct {
	// Machine is the retired machine ID.
	Machine int `json:"machine"`
	// At is the retirement time.
	At float64 `json:"at_seconds"`
}

// finite reports whether v is a usable number (no NaN, no ±Inf).
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate checks the spec's internal consistency — the same contract
// Parse enforces on files. It returns the first violation found.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if !(s.DurationSeconds > 0) || !finite(s.DurationSeconds) {
		return fmt.Errorf("scenario: duration %g must be finite and positive", s.DurationSeconds)
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("scenario: at least one tenant is required")
	}
	tenants := make(map[string]bool, len(s.Tenants))
	for i, t := range s.Tenants {
		if t.Name == "" {
			return fmt.Errorf("scenario: tenant %d has no name", i)
		}
		if tenants[t.Name] {
			return fmt.Errorf("scenario: duplicate tenant %q", t.Name)
		}
		tenants[t.Name] = true
		if !(t.BaseRate > 0) || !finite(t.BaseRate) {
			return fmt.Errorf("scenario: tenant %q base rate %g must be finite and positive", t.Name, t.BaseRate)
		}
		if t.Weight < 0 || !finite(t.Weight) {
			return fmt.Errorf("scenario: tenant %q weight %g must be finite and >= 0", t.Name, t.Weight)
		}
		if d := t.Diurnal; d != nil {
			if !(d.PeriodSeconds > 0) || !finite(d.PeriodSeconds) {
				return fmt.Errorf("scenario: tenant %q diurnal period %g must be finite and positive", t.Name, d.PeriodSeconds)
			}
			if d.Amplitude < 0 || d.Amplitude >= 1 || !finite(d.Amplitude) {
				return fmt.Errorf("scenario: tenant %q diurnal amplitude %g must be in [0, 1)", t.Name, d.Amplitude)
			}
		}
		for _, w := range t.Surges {
			if err := validateWindow(w.From, w.Until, w.Factor); err != nil {
				return fmt.Errorf("scenario: tenant %q flash crowd: %w", t.Name, err)
			}
		}
		if a := t.ServiceTailAlpha; a != 0 && (!(a > 1) || !finite(a)) {
			return fmt.Errorf("scenario: tenant %q service tail alpha %g must be finite and > 1 (finite-mean Pareto)", t.Name, a)
		}
	}
	for i, ms := range s.Surges {
		if len(ms.Tenants) == 0 {
			return fmt.Errorf("scenario: surge %d names no tenants", i)
		}
		for _, name := range ms.Tenants {
			if !tenants[name] {
				return fmt.Errorf("scenario: surge %d targets unknown tenant %q", i, name)
			}
		}
		if err := validateWindow(ms.From, ms.Until, ms.Factor); err != nil {
			return fmt.Errorf("scenario: surge %d: %w", i, err)
		}
		if ms.JitterSeconds < 0 || !finite(ms.JitterSeconds) {
			return fmt.Errorf("scenario: surge %d jitter %g must be finite and >= 0", i, ms.JitterSeconds)
		}
	}
	if err := s.Churn.validate(); err != nil {
		return err
	}
	decommissionAt := make(map[int]float64, len(s.Decommissions))
	for i, d := range s.Decommissions {
		if d.Machine < 0 {
			return fmt.Errorf("scenario: decommission %d targets negative machine %d", i, d.Machine)
		}
		if d.At < 0 || !finite(d.At) {
			return fmt.Errorf("scenario: decommission %d at %g must be finite and >= 0", i, d.At)
		}
		if prev, dup := decommissionAt[d.Machine]; dup {
			return fmt.Errorf("scenario: machine %d decommissioned twice (t=%g and t=%g)", d.Machine, prev, d.At)
		}
		decommissionAt[d.Machine] = d.At
	}
	for i, k := range s.Churn.Kills {
		if at, gone := decommissionAt[k.Machine]; gone && k.At+k.Down > at {
			return fmt.Errorf("scenario: kill %d churns machine %d past its decommission at t=%g", i, k.Machine, at)
		}
	}
	perMachine := make(map[int][]StragglerSpec)
	for i, st := range s.Stragglers {
		if st.Machine < 0 {
			return fmt.Errorf("scenario: straggler %d targets negative machine %d", i, st.Machine)
		}
		if err := validateWindow(st.From, st.Until, 1); err != nil {
			return fmt.Errorf("scenario: straggler %d: %w", i, err)
		}
		for _, prev := range perMachine[st.Machine] {
			if st.From < prev.Until && prev.From < st.Until {
				return fmt.Errorf("scenario: straggler windows overlap on machine %d ([%g,%g) and [%g,%g))",
					st.Machine, prev.From, prev.Until, st.From, st.Until)
			}
		}
		perMachine[st.Machine] = append(perMachine[st.Machine], st)
		if at, gone := decommissionAt[st.Machine]; gone && st.Until > at {
			return fmt.Errorf("scenario: straggler %d runs past machine %d's decommission at t=%g", i, st.Machine, at)
		}
	}
	for i, p := range s.Policy {
		if p.At < 0 || !finite(p.At) {
			return fmt.Errorf("scenario: policy %d at %g must be finite and >= 0", i, p.At)
		}
		if !tenants[p.Tenant] {
			return fmt.Errorf("scenario: policy %d targets unknown tenant %q", i, p.Tenant)
		}
		if p.Priority < 0 {
			return fmt.Errorf("scenario: policy %d sets negative priority %d", i, p.Priority)
		}
	}
	return nil
}

// validateWindow checks one [from, until) window and its factor.
func validateWindow(from, until, factor float64) error {
	if from < 0 || !finite(from) || !finite(until) {
		return fmt.Errorf("window [%g, %g) must be finite with from >= 0", from, until)
	}
	if !(from < until) {
		return fmt.Errorf("window [%g, %g) is empty or inverted", from, until)
	}
	if !(factor > 0) || !finite(factor) {
		return fmt.Errorf("factor %g must be finite and positive", factor)
	}
	return nil
}

// validate checks the kill script: each kill's target and window, and
// that no two kill windows overlap on the same machine (an overlapping
// kill would fail a machine that is already down).
func (c ChurnSpec) validate() error {
	for i, k := range c.Kills {
		if k.Machine < 0 {
			return fmt.Errorf("scenario: kill %d targets negative machine %d", i, k.Machine)
		}
		if k.At < 0 || !finite(k.At) {
			return fmt.Errorf("scenario: kill %d at %g must be finite and >= 0", i, k.At)
		}
		if !(k.Down > 0) || !finite(k.Down) {
			return fmt.Errorf("scenario: kill %d outage %g must be finite and positive", i, k.Down)
		}
		for j := 0; j < i; j++ {
			p := c.Kills[j]
			if p.Machine == k.Machine && k.At < p.At+p.Down && p.At < k.At+k.Down {
				return fmt.Errorf("scenario: kill windows overlap on machine %d ([%g,%g) and [%g,%g))",
					k.Machine, p.At, p.At+p.Down, k.At, k.At+k.Down)
			}
		}
	}
	return nil
}

// Scaled returns a copy of the spec with every time quantity multiplied
// by f — the scaled-down form benchmarks and quick tests run. Rates and
// factors are untouched: a shorter day, not a gentler one.
func (s Spec) Scaled(f float64) Spec {
	out := s
	out.DurationSeconds *= f
	out.Tenants = append([]TenantSpec(nil), s.Tenants...)
	for i, t := range out.Tenants {
		if t.Diurnal != nil {
			d := *t.Diurnal
			d.PeriodSeconds *= f
			out.Tenants[i].Diurnal = &d
		}
		out.Tenants[i].Surges = scaleWindows(t.Surges, f)
	}
	out.Surges = append([]MultiSurgeSpec(nil), s.Surges...)
	for i := range out.Surges {
		out.Surges[i].From *= f
		out.Surges[i].Until *= f
		out.Surges[i].JitterSeconds *= f
	}
	out.Churn.Kills = append([]KillSpec(nil), s.Churn.Kills...)
	for i := range out.Churn.Kills {
		out.Churn.Kills[i].At *= f
		out.Churn.Kills[i].Down *= f
	}
	out.Stragglers = append([]StragglerSpec(nil), s.Stragglers...)
	for i := range out.Stragglers {
		out.Stragglers[i].From *= f
		out.Stragglers[i].Until *= f
	}
	out.Policy = append([]PolicySpec(nil), s.Policy...)
	for i := range out.Policy {
		out.Policy[i].At *= f
	}
	out.Decommissions = append([]DecommissionSpec(nil), s.Decommissions...)
	for i := range out.Decommissions {
		out.Decommissions[i].At *= f
	}
	return out
}

// scaleWindows scales one tenant's flash-crowd windows.
func scaleWindows(ws []SurgeSpec, f float64) []SurgeSpec {
	out := append([]SurgeSpec(nil), ws...)
	for i := range out {
		out[i].From *= f
		out[i].Until *= f
	}
	return out
}

// Kind discriminates timeline events.
type Kind int

// The event kinds a compiled timeline can carry, in tie-break order:
// failures land before recoveries at the same instant (a zero-length
// outage stays observable), infrastructure events before policy and
// surge markers.
const (
	// KindFail takes a machine down.
	KindFail Kind = iota
	// KindRecover brings a failed machine back.
	KindRecover
	// KindStragglerOn marks a machine degraded-but-alive.
	KindStragglerOn
	// KindStragglerOff clears the degraded mark.
	KindStragglerOff
	// KindDecommission retires a machine permanently.
	KindDecommission
	// KindPriority applies a tenant priority change.
	KindPriority
	// KindSurgeStart and KindSurgeEnd bracket a resolved surge window —
	// informational markers phase-segmenting drivers key on; the arrival
	// envelope itself already carries the rate change.
	KindSurgeStart
	// KindSurgeEnd closes a surge window.
	KindSurgeEnd
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindFail:
		return "fail"
	case KindRecover:
		return "recover"
	case KindStragglerOn:
		return "straggler-on"
	case KindStragglerOff:
		return "straggler-off"
	case KindDecommission:
		return "decommission"
	case KindPriority:
		return "priority"
	case KindSurgeStart:
		return "surge-start"
	case KindSurgeEnd:
		return "surge-end"
	default:
		return "unknown"
	}
}

// Event is one timeline entry.
type Event struct {
	// At is the event time in scenario seconds.
	At float64
	// Kind discriminates the payload fields below.
	Kind Kind
	// Machine is the target of Fail/Recover/Straggler*/Decommission.
	Machine int
	// Tenant is the target of Priority and Surge* events.
	Tenant string
	// Priority is the new rank of a Priority event.
	Priority int
	// Factor is the rate multiplier of a Surge* event.
	Factor float64
}

// String renders the event for reports.
func (e Event) String() string {
	switch e.Kind {
	case KindFail, KindRecover, KindStragglerOn, KindStragglerOff, KindDecommission:
		return fmt.Sprintf("t=%.0fs %s machine %d", e.At, e.Kind, e.Machine)
	case KindPriority:
		return fmt.Sprintf("t=%.0fs %s %s -> %d", e.At, e.Kind, e.Tenant, e.Priority)
	case KindSurgeStart, KindSurgeEnd:
		return fmt.Sprintf("t=%.0fs %s %s x%.1f", e.At, e.Kind, e.Tenant, e.Factor)
	default:
		return fmt.Sprintf("t=%.0fs %s", e.At, e.Kind)
	}
}

// window is one resolved multiplicative rate window.
type window struct {
	from, until, factor float64
}

// Timeline is a compiled scenario: the merged, time-sorted event schedule
// plus each tenant's resolved arrival envelope. Compile is deterministic —
// the same spec yields an identical timeline every time.
type Timeline struct {
	spec    Spec
	events  []Event
	windows map[string][]window
}

// Compile validates the spec and resolves it into a timeline: kills,
// stragglers, decommissions and policy changes become events, correlated
// surges are jittered per tenant (seeded, via independent RNG splits so
// adding a tenant never shifts another's draw), and the merged schedule
// is sorted by (time, kind, machine, tenant).
func Compile(s Spec) (*Timeline, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	tl := &Timeline{spec: s, windows: make(map[string][]window, len(s.Tenants))}
	for _, d := range s.Decommissions {
		tl.events = append(tl.events, Event{At: d.At, Kind: KindDecommission, Machine: d.Machine})
	}
	for _, k := range s.Churn.Kills {
		tl.events = append(tl.events,
			Event{At: k.At, Kind: KindFail, Machine: k.Machine},
			Event{At: k.At + k.Down, Kind: KindRecover, Machine: k.Machine})
	}
	for _, st := range s.Stragglers {
		tl.events = append(tl.events,
			Event{At: st.From, Kind: KindStragglerOn, Machine: st.Machine},
			Event{At: st.Until, Kind: KindStragglerOff, Machine: st.Machine})
	}
	for _, p := range s.Policy {
		tl.events = append(tl.events, Event{At: p.At, Kind: KindPriority, Tenant: p.Tenant, Priority: p.Priority})
	}
	for _, t := range s.Tenants {
		for _, w := range t.Surges {
			tl.addWindow(t.Name, window{from: w.From, until: w.Until, factor: w.Factor})
		}
	}
	rng := stats.NewRNG(s.Seed)
	for i, ms := range s.Surges {
		// One independent stream per (surge, tenant) pair, keyed by stable
		// indices: editing one tenant's list never re-rolls another's jitter.
		for _, name := range ms.Tenants {
			jitter := 0.0
			if ms.JitterSeconds > 0 {
				jitter = rng.Split(uint64(i)<<32|uint64(tenantIndex(s.Tenants, name))).
					Uniform(0, ms.JitterSeconds)
			}
			tl.addWindow(name, window{from: ms.From + jitter, until: ms.Until + jitter, factor: ms.Factor})
		}
	}
	sort.SliceStable(tl.events, func(a, b int) bool {
		x, y := tl.events[a], tl.events[b]
		if x.At != y.At {
			return x.At < y.At
		}
		if x.Kind != y.Kind {
			return x.Kind < y.Kind
		}
		if x.Machine != y.Machine {
			return x.Machine < y.Machine
		}
		return x.Tenant < y.Tenant
	})
	return tl, nil
}

// addWindow records a resolved window and its bracketing surge markers.
func (tl *Timeline) addWindow(tenant string, w window) {
	tl.windows[tenant] = append(tl.windows[tenant], w)
	tl.events = append(tl.events,
		Event{At: w.from, Kind: KindSurgeStart, Tenant: tenant, Factor: w.factor},
		Event{At: w.until, Kind: KindSurgeEnd, Tenant: tenant, Factor: w.factor})
}

// tenantIndex finds a tenant's position in the spec (validated to exist).
func tenantIndex(ts []TenantSpec, name string) int {
	for i, t := range ts {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// Events returns the merged schedule, sorted by time (a copy; callers may
// consume it destructively).
func (tl *Timeline) Events() []Event { return append([]Event(nil), tl.events...) }

// Envelope returns tenant's multiplicative rate envelope: the diurnal
// sinusoid times every active surge window's factor at time t. The
// envelope is strictly positive (amplitude < 1 and factors > 0 by
// validation) and is the exact function both substrates replay —
// simulated arrivals and ingestload's live pacing.
func (tl *Timeline) Envelope(tenant string) (func(t float64) float64, error) {
	i := tenantIndex(tl.spec.Tenants, tenant)
	if i < 0 {
		return nil, fmt.Errorf("scenario: unknown tenant %q", tenant)
	}
	diurnal := tl.spec.Tenants[i].Diurnal
	windows := tl.windows[tenant]
	return func(t float64) float64 {
		f := 1.0
		if diurnal != nil {
			f *= 1 + diurnal.Amplitude*math.Sin(2*math.Pi*t/diurnal.PeriodSeconds)
		}
		for _, w := range windows {
			if t >= w.from && t < w.until {
				f *= w.factor
			}
		}
		return f
	}, nil
}

// Arrivals builds tenant's composed arrival process: Poisson at BaseRate
// shaped by the envelope. Each call returns a fresh process (arrival
// processes carry a clock).
func (tl *Timeline) Arrivals(tenant string) (sim.ArrivalProcess, error) {
	i := tenantIndex(tl.spec.Tenants, tenant)
	if i < 0 {
		return nil, fmt.Errorf("scenario: unknown tenant %q", tenant)
	}
	env, err := tl.Envelope(tenant)
	if err != nil {
		return nil, err
	}
	return &sim.ShapedRate{
		Base:     sim.PoissonArrivals{Rate: tl.spec.Tenants[i].BaseRate},
		Envelope: env,
	}, nil
}

// Service builds tenant's per-tuple service-time distribution for a stage
// whose mean service time is 1/mu: exponential by default, a mean-pinned
// Pareto when the tenant declares a heavy service tail.
func (tl *Timeline) Service(tenant string, mu float64) (stats.Dist, error) {
	i := tenantIndex(tl.spec.Tenants, tenant)
	if i < 0 {
		return nil, fmt.Errorf("scenario: unknown tenant %q", tenant)
	}
	if a := tl.spec.Tenants[i].ServiceTailAlpha; a > 1 {
		return stats.NewParetoWithMean(1/mu, a)
	}
	return stats.Exponential{Rate: mu}, nil
}
