package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"github.com/drs-repro/drs/internal/obs"
)

// This file is the cluster-level arbiter: where cluster.Pool models the
// machines below ONE topology's control loop, Scheduler puts N supervised
// topologies on one shared pool — the setting the paper's §V evaluation
// actually runs in (several applications coexisting on a Storm cluster,
// with the Appendix-B negotiator brokering machines between them).
//
// Each topology registers as a tenant and receives a lease (*Tenant) that
// speaks the same Kmax/Rebalance/Resize protocol its supervisor already
// uses against a private pool — so a loop.Supervisor does not know whether
// it owns machines or merely rents slots. A Resize is a *request*: the
// scheduler grants what weighted max-min fairness allows, growing or
// shrinking the machine pool underneath as aggregate demand moves, and —
// when a higher-priority tenant is violating its Tmax and the pool is
// maxed out — preempting slots from lower-priority tenants, guarded by the
// Appendix-B cost/benefit test on the tenants' reported marginal utilities.

// maxHistory caps the retained decision history; the oldest events are
// overwritten past it.
const maxHistory = 256

// TenantReport is a tenant's latest utility self-assessment, pushed by its
// supervisor every measurement round. The two marginal rates are in the
// Equation (3) *numerator* units — sojourn-seconds per second, i.e. tuples
// in flight by Little's law — which, unlike per-tuple E[T], are directly
// comparable across topologies with different arrival rates. They are what
// core.Model.GrowBenefit and ShrinkCost compute.
type TenantReport struct {
	// Lambda0 is the tenant's measured external arrival rate (tuples/s);
	// the preemption guard uses it to price transition pauses in tuples
	// disturbed.
	Lambda0 float64
	// Violating reports whether the tenant currently exceeds its Tmax
	// target. Only violating tenants may trigger preemption.
	Violating bool
	// GrowBenefit is the marginal gain of one more slot (sojourn-sec/sec).
	GrowBenefit float64
	// ShrinkCost is the marginal damage of losing one slot; +Inf marks the
	// tenant non-preemptible (at its minimum stable allocation).
	ShrinkCost float64
}

// TenantConfig registers one topology with the scheduler.
type TenantConfig struct {
	// Name identifies the tenant in grants and history (required, unique).
	Name string
	// Weight sets the tenant's max-min share; zero defaults to 1.
	Weight float64
	// Priority orders preemption: a violating tenant may take slots only
	// from strictly lower-priority tenants.
	Priority int
	// MinSlots is the preemption floor: arbitration never takes the
	// tenant's grant below it involuntarily. Size it at least to the
	// topology's minimum stable allocation plus one slot per operator, or
	// a preempted tenant can be pushed into an unstable configuration.
	MinSlots int
	// InitialSlots is the grant the tenant starts with; Register fails
	// with ErrNoCapacity if the pool cannot cover it alongside the
	// existing tenants' grants.
	InitialSlots int
}

func (c TenantConfig) validate() error {
	if c.Name == "" {
		return errors.New("cluster: tenant name required")
	}
	if !(c.Weight >= 0) || c.MinSlots < 0 || c.InitialSlots < 0 {
		return errors.New("cluster: negative tenant parameters")
	}
	return nil
}

// SchedulerConfig assembles a scheduler.
type SchedulerConfig struct {
	// Pool is the machine pool the scheduler takes ownership of
	// (required). Nothing else may resize it afterwards; the scheduler
	// subscribes to the pool's machine churn and re-arbitrates out of band
	// when a machine fails, recovers or is flagged a straggler.
	Pool *Pool
	// CostWindow is the Appendix-B amortization horizon: a preemption must
	// recoup its transition pauses within this span of predicted benefit
	// (default 60s).
	CostWindow time.Duration
	// Clock reads the time for the scheduler's decision history;
	// virtual-time drivers (the experiments) inject their own. Nil means
	// time.Now.
	Clock func() time.Time
	// DecisionLog, when set, receives every arbitration outcome as a
	// structured record — preemptions carry their full Appendix-B verdict
	// inputs (claimant benefit, victim cost, both arrival rates, the
	// charged pause). Nil disables emission at the cost of one branch.
	DecisionLog *obs.Log
}

// SchedulerEvent is one arbitration outcome that changed a grant or the
// pool, with its modeled transition cost — the cluster-wide decision
// history the operators read.
type SchedulerEvent struct {
	// At is the scheduler clock time of the event.
	At time.Time
	// Kind is "register", "grant", "shrink" (voluntary), "preempt"
	// (involuntary), "slots-lost" (involuntary, machine failure), "pool"
	// (negotiated machine change), "priority" (a tenant's rank changed)
	// or a machine lifecycle kind
	// ("machine-fail", "machine-recover", "straggler", "straggler-clear").
	Kind string
	// Tenant names the affected tenant ("" for pool events).
	Tenant string
	// From and To bracket the tenant's slot grant (or, for pool events,
	// the machine count).
	From, To int
	// Pause is the modeled service disruption charged for the change.
	Pause time.Duration
	// Detail is a human-readable justification.
	Detail string
}

// String renders one history line.
func (e SchedulerEvent) String() string {
	who := e.Tenant
	if who == "" {
		who = "(pool)"
	}
	return fmt.Sprintf("%-8s %-12s %d -> %d pause=%.1fs %s",
		e.Kind, who, e.From, e.To, e.Pause.Seconds(), e.Detail)
}

// TenantState is one tenant's row in a State snapshot.
type TenantState struct {
	Name                                string
	Weight                              float64
	Priority, MinSlots, Demand, Granted int
	// Lost is the cumulative number of slots machine failures have taken
	// from this tenant's grant.
	Lost int
}

// MachineUse is one live machine's row in a placement snapshot: how its
// slots are split between the reserved share and tenant leases.
type MachineUse struct {
	// ID is the machine's pool identity.
	ID int
	// Straggler reports the degraded-machine flag; stragglers are filled
	// last, so they hold slots only when the healthy machines are full.
	Straggler bool
	// Slots is the machine's slot capacity; Reserved and Leased are the
	// slots placed on it (Reserved + Leased <= Slots always holds).
	Slots, Reserved, Leased int
}

// SchedulerState is an atomic snapshot of the arbitration state, for
// dashboards and invariant-checking tests.
type SchedulerState struct {
	// Machines and Capacity describe the pool under the grants (live
	// machines only — failed ones offer no capacity).
	Machines, Capacity int
	// Leased is the total of all grants; after every arbitration
	// Leased <= Capacity holds (no slot is ever double-leased). One
	// unavoidable transient exists: between a machine crash and the
	// scheduler's out-of-band re-arbitration — a window of one callback
	// dispatch — a snapshot can catch the pre-crash grants against the
	// post-crash capacity, which is the physically true state of a
	// cluster at the instant slots die.
	Leased int
	// Tenants lists every registered tenant in registration order.
	Tenants []TenantState
	// Placement maps the grants onto live machines, one row per machine in
	// fill order (healthy before stragglers).
	Placement []MachineUse
}

// Scheduler arbitrates one machine pool among N tenant topologies. Safe
// for concurrent use: every lease operation serializes on the scheduler.
type Scheduler struct {
	cfg SchedulerConfig
	now func() time.Time

	mu        sync.Mutex
	tenants   []*Tenant      // registration order; tie-break for fairness
	preempts  map[string]int // claimant -> slots preempted on its behalf, in force
	placement []MachineUse   // per-machine slot use, rebuilt each arbitration
	history   []SchedulerEvent
	histStart int

	// Arbitration scratch, reused call to call (guarded by mu) so the
	// per-request decision path stays off the allocator: the
	// priority-sorted tenant view shared by the floor pass and the
	// preemption overlay, the per-claimant victim list, and the machine
	// list the placement rebuild walks.
	prioScratch   []*Tenant
	victimScratch []*Tenant
	machScratch   []MachineInfo
}

// NewScheduler validates the config, fills defaults, takes ownership of
// the pool and subscribes to its machine churn.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	if cfg.Pool == nil {
		return nil, errors.New("cluster: scheduler requires a pool")
	}
	if cfg.CostWindow < 0 {
		return nil, errors.New("cluster: negative scheduler parameters")
	}
	if cfg.CostWindow == 0 {
		cfg.CostWindow = time.Minute
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &Scheduler{cfg: cfg, now: cfg.Clock, preempts: make(map[string]int)}
	s.mu.Lock()
	s.placeLocked()
	s.mu.Unlock()
	cfg.Pool.AddChurnListener(s.poolChurn)
	return s, nil
}

// poolChurn is the out-of-band re-arbitration path: the pool delivers a
// machine lifecycle transition (failure, recovery, straggler flag) and the
// scheduler immediately recomputes every grant against the new live
// capacity — without waiting for any tenant's next Resize. A failure
// shrinks grants fairly through the same floors → water-fill → preemption
// pipeline, with the lost-capacity overlay attributing the involuntary
// shrinks to the crash ("slots-lost" events, Tenant.LostSlots) so
// supervisors can tell failover from preemption.
func (s *Scheduler) poolChurn(ev ChurnEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recordLocked(SchedulerEvent{At: s.now(), Kind: ev.Kind,
		From: ev.LiveBefore, To: ev.LiveAfter,
		Detail: fmt.Sprintf("machine %d", ev.Machine)})
	lost := 0
	if ev.Kind == "machine-fail" {
		if lost = (ev.LiveBefore - ev.LiveAfter) * s.cfg.Pool.SlotsPerMachine(); lost < 0 {
			lost = 0
		}
	}
	s.arbitrateLocked(lost)
}

// FailMachine reports a machine crash to the pool; the churn subscription
// re-arbitrates every lease against the surviving capacity immediately.
func (s *Scheduler) FailMachine(id int) error { return s.cfg.Pool.Fail(id) }

// RecoverMachine returns a failed machine to service; the freed capacity
// is re-arbitrated to the pending demands immediately.
func (s *Scheduler) RecoverMachine(id int) error { return s.cfg.Pool.Recover(id) }

// MarkStraggler flags (or clears) a machine as degraded-but-alive; the
// placement refreshes so leases concentrate on healthy machines first.
func (s *Scheduler) MarkStraggler(id int, on bool) error {
	return s.cfg.Pool.SetStraggler(id, on)
}

// Tenant is one topology's lease on the shared pool. It implements the
// supervisor's pool protocol (Kmax / Rebalance / Resize), so a
// loop.Supervisor drives it exactly as it would a private *Pool — except
// that Resize is a request the scheduler may grant only partially, and the
// grant can later shrink underneath the tenant when a higher-priority
// tenant preempts it (the supervisor notices via Kmax and shrinks
// gracefully).
type Tenant struct {
	s   *Scheduler
	cfg TenantConfig

	// All fields below are guarded by s.mu.
	demand     int
	granted    int
	lost       int // cumulative slots taken by machine failures
	report     TenantReport
	haveReport bool

	// Per-arbitration scratch (guarded by s.mu, meaningful only inside one
	// arbitrateLocked call): the grant entering the arbitration, whether
	// the preemption overlay took from this tenant, and which claimant took
	// last (the decision log reads its verdict inputs off the claimant's
	// report) — held on the tenant so the decision path needs no per-call
	// maps.
	prevGranted int
	preempted   bool
	preemptBy   *Tenant
}

// Register admits a tenant and grants its initial slots, growing the pool
// if needed. It fails with ErrNoCapacity when the initial grant cannot be
// covered next to the existing tenants' grants.
func (s *Scheduler) Register(cfg TenantConfig) (*Tenant, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Weight == 0 {
		cfg.Weight = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tenants {
		if t.cfg.Name == cfg.Name {
			return nil, fmt.Errorf("cluster: tenant %q already registered", cfg.Name)
		}
	}
	t := &Tenant{s: s, cfg: cfg, demand: cfg.InitialSlots}
	s.tenants = append(s.tenants, t)
	s.arbitrateLocked(0)
	if t.granted < cfg.InitialSlots {
		s.tenants = s.tenants[:len(s.tenants)-1]
		t.demand, t.granted = 0, 0
		s.arbitrateLocked(0)
		return nil, fmt.Errorf("%w: tenant %q needs %d initial slots", ErrNoCapacity, cfg.Name, cfg.InitialSlots)
	}
	s.recordLocked(SchedulerEvent{At: s.now(), Kind: "register", Tenant: cfg.Name,
		From: 0, To: t.granted, Detail: fmt.Sprintf("weight %g priority %d floor %d", cfg.Weight, cfg.Priority, cfg.MinSlots)})
	return t, nil
}

// State returns an atomic snapshot of pool, grants and demands.
func (s *Scheduler) State() SchedulerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SchedulerState{
		Machines: s.cfg.Pool.Machines(),
		Capacity: s.cfg.Pool.Kmax(),
	}
	for _, t := range s.tenants {
		st.Leased += t.granted
		st.Tenants = append(st.Tenants, TenantState{
			Name: t.cfg.Name, Weight: t.cfg.Weight, Priority: t.cfg.Priority,
			MinSlots: t.cfg.MinSlots, Demand: t.demand, Granted: t.granted,
			Lost: t.lost,
		})
	}
	st.Placement = append([]MachineUse(nil), s.placement...)
	return st
}

// History returns a copy of the retained decision history, oldest first.
func (s *Scheduler) History() []SchedulerEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SchedulerEvent, len(s.history))
	n := copy(out, s.history[s.histStart:])
	copy(out[n:], s.history[:s.histStart])
	return out
}

// recordLocked appends an event, overwriting the oldest past maxHistory,
// and mirrors it into the decision log. Preempt events are the exception:
// arbitrateLocked emits those itself so they carry the Appendix-B verdict
// inputs the history line compresses away.
func (s *Scheduler) recordLocked(ev SchedulerEvent) {
	if s.cfg.DecisionLog != nil && ev.Kind != "preempt" {
		if k, ok := obs.KindFromString(ev.Kind); ok {
			s.cfg.DecisionLog.Emit(&obs.Record{
				At:   ev.At.UnixNano(),
				Kind: k, Tenant: ev.Tenant, From: ev.From, To: ev.To,
				PauseNS: ev.Pause.Nanoseconds(), Detail: ev.Detail,
			})
		}
	}
	if len(s.history) < maxHistory {
		s.history = append(s.history, ev)
		return
	}
	s.history[s.histStart] = ev
	s.histStart = (s.histStart + 1) % len(s.history)
}

// arbitrateLocked recomputes every grant from scratch as a pure function
// of the current demands, weights, floors, priorities and utility reports:
//
//  1. negotiate the pool to cover aggregate demand (whole machines, within
//     the provider cap),
//  2. grant every tenant its floor, min(demand, MinSlots), in priority
//     then registration order,
//  3. water-fill the rest by weighted max-min: repeatedly grant one slot
//     to the unsatisfied tenant with the smallest granted/weight ratio,
//  4. overlay preemption: a violating higher-priority tenant still short
//     of its demand takes slots from lower-priority tenants (never below
//     their floors) where the Appendix-B cost/benefit guard clears,
//  5. map every grant onto live machines (healthy first, stragglers last).
//
// Because the computation is deterministic and depends only on those
// inputs, repeated arbitrations with unchanged inputs reproduce the same
// grants exactly — no churn — and the moment a violation clears or a
// demand drops, the next arbitration returns the slots automatically.
//
// lostCapacity is the slot count a machine failure just removed (0 for
// demand-driven arbitrations): involuntary shrinks that are not
// preemptions are attributed to the crash — the "lost capacity" overlay
// ("slots-lost" events, per-tenant lost counters) that lets a supervisor
// distinguish failover from preemption. The attribution is bounded by
// lostCapacity, so an unrelated shrink that happens to land in the same
// arbitration (say, a preemption overlay unwinding because its claimant's
// violation cleared) cannot inflate the failure accounting.
//
// It returns the pool transition and whether the machine count changed.
func (s *Scheduler) arbitrateLocked(lostCapacity int) (Transition, bool) {
	now := s.now()
	for _, t := range s.tenants {
		t.prevGranted = t.granted
		t.granted = 0
		t.preempted = false
		t.preemptBy = nil
	}

	// Negotiate the machine pool to the aggregate demand, clamped to the
	// provider cap. Only touch it when the machine count actually changes:
	// a no-op Resize would still charge a rebalance pause.
	var poolTr Transition
	poolChanged := false
	want := 0
	for _, t := range s.tenants {
		want += t.demand
	}
	if max := s.cfg.Pool.MaxKmax(); want > max {
		want = max
	}
	if machines, _, err := s.cfg.Pool.MachinesFor(want); err == nil && machines != s.cfg.Pool.Machines() {
		if tr, err := s.cfg.Pool.Resize(want); err == nil {
			poolTr, poolChanged = tr, true
			s.recordLocked(SchedulerEvent{At: now, Kind: "pool", From: tr.MachinesBefore,
				To: tr.MachinesAfter, Pause: tr.Pause, Detail: tr.Kind})
		}
	}
	capacity := s.cfg.Pool.Kmax()

	// Floors first: a tenant's MinSlots are off the fairness table, so a
	// burst of competing demand can never starve an incumbent below its
	// stable minimum. Priority then registration order decides who eats
	// when even the floors exceed capacity. The priority-sorted view is
	// shared with the preemption overlay below (same order: priority
	// descending, registration order within a rank).
	byPrio := append(s.prioScratch[:0], s.tenants...)
	slices.SortStableFunc(byPrio, func(a, b *Tenant) int {
		return cmp.Compare(b.cfg.Priority, a.cfg.Priority)
	})
	s.prioScratch = byPrio
	free := capacity
	for _, t := range byPrio {
		floor := t.cfg.MinSlots
		if floor > t.demand {
			floor = t.demand
		}
		if floor > free {
			floor = free
		}
		t.granted = floor
		free -= floor
	}

	// Weighted max-min water-fill of the remaining capacity.
	for free > 0 {
		var pick *Tenant
		bestRatio := math.Inf(1)
		for _, t := range s.tenants {
			if t.demand <= t.granted {
				continue
			}
			if ratio := float64(t.granted) / t.cfg.Weight; ratio < bestRatio {
				pick, bestRatio = t, ratio
			}
		}
		if pick == nil {
			break
		}
		pick.granted++
		free--
	}

	// The preemption overlay is part of the same pure function: it is
	// re-derived from the latest reports on every arbitration, so a
	// transfer stays in force exactly as long as the claimant still
	// reports a violation — and unwinds by itself the round after the
	// violation clears.
	s.preemptLocked(byPrio)

	// Record the net per-tenant changes of this arbitration.
	rebalance := s.cfg.Pool.Costs().Rebalance
	for _, t := range s.tenants {
		old := t.prevGranted
		switch {
		case t.granted > old:
			s.recordLocked(SchedulerEvent{At: now, Kind: "grant", Tenant: t.cfg.Name,
				From: old, To: t.granted, Detail: fmt.Sprintf("demand %d", t.demand)})
		case t.granted < old && t.preempted:
			if s.cfg.DecisionLog != nil && t.preemptBy != nil {
				// The audited form of the preemption: claimant, victim and
				// the Appendix-B inputs the guard weighed — marginal gain vs
				// loss, both external arrival rates pricing the pauses, and
				// the charged pause itself. Flag records that the pair was
				// priority-ordered (always true by victim selection).
				c := t.preemptBy
				s.cfg.DecisionLog.Emit(&obs.Record{
					At:   now.UnixNano(),
					Kind: obs.KindPreempt, Tenant: c.cfg.Name, Peer: t.cfg.Name,
					From: old, To: t.granted,
					Gain: c.report.GrowBenefit, Loss: t.report.ShrinkCost,
					Lambda0: c.report.Lambda0, PeerLambda0: t.report.Lambda0,
					PauseNS: rebalance.Nanoseconds(),
					Flag:    c.cfg.Priority > t.cfg.Priority,
				})
			}
			s.recordLocked(SchedulerEvent{At: now, Kind: "preempt", Tenant: t.cfg.Name,
				From: old, To: t.granted, Pause: rebalance,
				Detail: fmt.Sprintf("floor %d", t.cfg.MinSlots)})
		case t.granted < old && lostCapacity > 0:
			// The lost-capacity overlay: the demand did not drop and no
			// preemption fired — the slots went down with a machine. The
			// remaining lost-capacity budget bounds the attribution.
			took := old - t.granted
			if took > lostCapacity {
				took = lostCapacity
			}
			lostCapacity -= took
			t.lost += took
			s.recordLocked(SchedulerEvent{At: now, Kind: "slots-lost", Tenant: t.cfg.Name,
				From: old, To: t.granted, Pause: rebalance,
				Detail: fmt.Sprintf("machine failure; capacity %d", capacity)})
		case t.granted < old:
			s.recordLocked(SchedulerEvent{At: now, Kind: "shrink", Tenant: t.cfg.Name,
				From: old, To: t.granted, Detail: fmt.Sprintf("demand %d", t.demand)})
		}
	}
	s.placeLocked()
	return poolTr, poolChanged
}

// placeLocked rebuilds the slot → machine mapping for the current grants:
// live machines are filled in ID order with healthy machines before
// stragglers, the reserved slots land first, then each tenant's grant in
// registration order. The mapping is a pure function of the grants and the
// machine states, so it never disagrees with the arbitration — and because
// Leased <= Capacity is an arbitration invariant, every granted slot finds
// a machine.
func (s *Scheduler) placeLocked() {
	list := s.cfg.Pool.AppendMachineList(s.machScratch[:0])
	s.machScratch = list
	s.placement = s.placement[:0]
	for pass := 0; pass < 2; pass++ { // healthy machines first, stragglers second
		for _, m := range list {
			if m.Failed || m.Straggler != (pass == 1) {
				continue
			}
			s.placement = append(s.placement, MachineUse{
				ID: m.ID, Straggler: m.Straggler, Slots: s.cfg.Pool.SlotsPerMachine(),
			})
		}
	}
	reserved := s.cfg.Pool.ReservedSlots()
	cursor := 0
	for i := range s.placement {
		if reserved == 0 {
			break
		}
		take := reserved
		if take > s.placement[i].Slots {
			take = s.placement[i].Slots
		}
		s.placement[i].Reserved = take
		reserved -= take
	}
	for _, t := range s.tenants {
		need := t.granted
		for need > 0 && cursor < len(s.placement) {
			row := &s.placement[cursor]
			free := row.Slots - row.Reserved - row.Leased
			if free <= 0 {
				cursor++
				continue
			}
			take := need
			if take > free {
				take = free
			}
			row.Leased += take
			need -= take
		}
	}
}

// preemptLocked moves slots from lower-priority tenants to unsatisfied
// violating higher-priority ones, under the Appendix-B cost/benefit guard:
// the claimant's predicted marginal gain must exceed the victim's marginal
// loss, and the net improvement over CostWindow must recoup the rebalance
// pauses both sides will pay (priced in tuples disturbed: λ0 · pause).
//
// A cleared guard is sticky for the length of the violation episode:
// preempts[claimant] records how many transferred slots the guard has
// authorized so far, and transfers up to that ceiling are re-taken on
// every arbitration *without* re-running the guard. The guard's inputs
// are the tenants' marginal utilities at their current allocations, which
// the transfer itself changes — re-litigating it every round would hand
// slots back through the fair water-fill one round and re-preempt them
// the next, both sides paying a pause each way. The ceiling only ratchets
// up through fresh guard clearances, and it resets the moment the
// claimant stops reporting a violation or its fair share covers it.
//
// claimants is every tenant in priority-descending order (the arbitration's
// shared sorted view); victims it takes from are flagged via t.preempted.
func (s *Scheduler) preemptLocked(claimants []*Tenant) {
	rebalance := s.cfg.Pool.Costs().Rebalance.Seconds()
	window := s.cfg.CostWindow.Seconds()
	for _, c := range claimants {
		sticky := s.preempts[c.cfg.Name]
		if c.demand <= c.granted || !c.haveReport || !c.report.Violating {
			delete(s.preempts, c.cfg.Name)
			continue
		}
		// Victims: strictly lower priority, above their floor, cheapest
		// marginal loss first (never a tenant that has not reported — a
		// blind preemption could destabilize it).
		victims := s.victimScratch[:0]
		for _, v := range s.tenants {
			if v.cfg.Priority < c.cfg.Priority && v.granted > v.cfg.MinSlots && v.haveReport {
				victims = append(victims, v)
			}
		}
		s.victimScratch = victims
		slices.SortStableFunc(victims, func(a, b *Tenant) int {
			if a.cfg.Priority != b.cfg.Priority {
				return cmp.Compare(a.cfg.Priority, b.cfg.Priority)
			}
			return cmp.Compare(a.report.ShrinkCost, b.report.ShrinkCost)
		})
		taken := 0
		for _, v := range victims {
			need := c.demand - c.granted
			if need <= 0 {
				break
			}
			avail := v.granted - v.cfg.MinSlots
			if avail <= 0 {
				continue
			}
			take := need
			if take > avail {
				take = avail
			}
			if guarded := take - (sticky - taken); guarded > 0 {
				// The portion beyond the sticky transfer must clear the
				// cost/benefit guard afresh.
				gain, loss := c.report.GrowBenefit, v.report.ShrinkCost
				if !(gain > loss) { // also false when loss is +Inf or NaN
					take -= guarded
				} else {
					// Both sides pay a rebalance pause; the net rate must
					// recoup it within the amortization window. The guard is
					// monotone in the transfer size, so testing the largest
					// one suffices.
					pausePenalty := (c.report.Lambda0 + v.report.Lambda0) * rebalance
					if float64(guarded)*(gain-loss)*window <= pausePenalty {
						take -= guarded
					}
				}
			}
			if take <= 0 {
				continue
			}
			v.granted -= take
			c.granted += take
			taken += take
			v.preempted = true
			v.preemptBy = c
		}
		if taken > sticky {
			s.preempts[c.cfg.Name] = taken
		}
	}
}

// Kmax reports the tenant's current slot grant — the processor budget its
// supervisor may allocate. It can shrink between calls when the scheduler
// preempts the tenant.
func (t *Tenant) Kmax() int {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.granted
}

// Name returns the tenant's registered name.
func (t *Tenant) Name() string { return t.cfg.Name }

// Rebalance records an executor remap within the tenant's current grant
// and returns its modeled pause (priced by the shared pool's cost model).
func (t *Tenant) Rebalance() Transition {
	return t.s.cfg.Pool.Rebalance()
}

// Resize submits an allocation request for target slots and returns the
// transition the arbitration produced for this tenant. The grant may be
// smaller than requested (partial grant, when the pool is contended) —
// callers must re-read Kmax and fit their allocation to it. A grow request
// that gains nothing returns ErrNoCapacity, which supervisors treat as a
// plain hold. Shrinking always succeeds and releases the slots to other
// tenants.
func (t *Tenant) Resize(target int) (Transition, error) {
	if target < 0 {
		return Transition{}, fmt.Errorf("cluster: negative slot request %d", target)
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	old := t.granted
	machinesBefore := t.s.cfg.Pool.Machines()
	t.demand = target
	poolTr, poolChanged := t.s.arbitrateLocked(0)
	costs := t.s.cfg.Pool.Costs()
	tr := Transition{MachinesBefore: machinesBefore, MachinesAfter: t.s.cfg.Pool.Machines()}
	switch {
	case t.granted > old:
		tr.Kind = "scale-out"
		tr.Pause = costs.Rebalance
		if poolChanged && poolTr.Kind == "scale-out" {
			tr.Pause += costs.MachineColdStart
		}
	case t.granted < old:
		tr.Kind = "scale-in"
		tr.Pause = costs.Rebalance
		if poolChanged && poolTr.Kind == "scale-in" {
			tr.Pause += costs.MachineRelease
		}
	default:
		if target > old {
			return Transition{}, fmt.Errorf("%w: tenant %q asked %d, holds %d and nothing is free",
				ErrNoCapacity, t.cfg.Name, target, old)
		}
		tr.Kind = "rebalance"
		tr.Pause = costs.Rebalance
	}
	return tr, nil
}

// Report stores the tenant's latest utility self-assessment; the
// preemption guard reads it on the next arbitration.
func (t *Tenant) Report(r TenantReport) {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.report = r
	t.haveReport = true
}

// Granted reports the tenant's current grant (alias of Kmax, for callers
// that read it as scheduler state rather than as a pool budget).
func (t *Tenant) Granted() int { return t.Kmax() }

// LostSlots reports the cumulative number of slots machine failures have
// taken from this tenant's grant — the supervisor's signal that a shrink
// is failover, not preemption. The counter only grows; callers diff
// successive reads to detect fresh losses. It survives Release as the
// lease's final tally.
func (t *Tenant) LostSlots() int {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.lost
}

// SetPriority changes the tenant's preemption rank and re-arbitrates. The
// claimant's sticky preemption authorization is reset — it was earned at
// the old rank.
func (t *Tenant) SetPriority(priority int) error {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.cfg.Priority == priority {
		return nil
	}
	old := t.cfg.Priority
	t.cfg.Priority = priority
	delete(t.s.preempts, t.cfg.Name)
	t.s.recordLocked(SchedulerEvent{At: t.s.now(), Kind: "priority",
		Tenant: t.cfg.Name, From: old, To: priority})
	t.s.arbitrateLocked(0)
	return nil
}
