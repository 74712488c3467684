// Package loop closes the DRS control loop of §IV: it wires the measurer
// module (λ̂/µ̂ aggregation, internal/metrics), the decision module (the
// Program (4)/(6) optimizers behind core.Controller) and the actuation
// layer (engine rebalance + cluster negotiator) into one supervisor that
// runs against a live system. The paper's DRS daemon polls Storm every Tm
// seconds, re-solves the allocation and rebalances when the model says it
// pays off; Supervisor is that daemon for this repository's substrates —
// the goroutine engine (internal/engine) and the discrete-event simulator
// (internal/sim, driven in virtual time via Observe/Tick).
//
// One round is measure → one model → decide / bid / fit → one actuation.
// The supervisor never builds, scales or searches a queueing model itself:
// it holds one core.Model per round — at the demand clients offered, and
// at the admitted rates that flow while an ingest gate sheds — re-pointed
// in place from the round's snapshot, and the tenant bid, the re-fit of a
// partial grant, the forced shrink and the /metrics gauge all ask that
// model. An allocation is put in force through one path (actuate) and a
// failed round leaves through one (failRound).
//
// A supervisor reaches its machines through the Pool interface, which
// admits two very different providers: a private cluster.Pool (the
// single-topology deployment the paper evaluates) or a cluster.Tenant
// lease handed out by the multi-tenant cluster.Scheduler. Under a lease
// the protocol becomes request/grant: Resize may be granted only
// partially (the supervisor re-fits its allocation to what it got), the
// budget can shrink between ticks when a higher-priority tenant preempts
// slots (the supervisor vacates them gracefully at the next tick), and
// each round the supervisor pushes a utility report — marginal benefit
// and cost of one slot, from the Eq. 3 model — that the scheduler's
// preemption guard arbitrates with.
package loop

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/metrics"
	"github.com/drs-repro/drs/internal/obs"
)

// ErrRunning is returned by Start when the supervisor is already running.
var ErrRunning = errors.New("loop: supervisor already started")

// ErrFixedPool is returned when a scale decision reaches a FixedPool.
var ErrFixedPool = errors.New("loop: fixed pool cannot resize")

// Target is the running system under supervision: it yields measurement
// intervals, reports the allocation in force, and applies a new one.
// EngineTarget adapts the live engine; the experiments package adapts the
// simulator.
type Target interface {
	// DrainInterval returns the counters accumulated since the last drain.
	DrainInterval() metrics.IntervalReport
	// Allocation reports the executor count per operator currently in force.
	Allocation() map[string]int
	// Rebalance applies a new allocation. pause is the modeled service
	// disruption from the cluster cost model — live targets pay their real
	// pause and may ignore it; simulated targets inject it.
	Rebalance(alloc map[string]int, pause time.Duration) error
}

// engineTarget adapts *engine.Run. The live engine pays its real quiesce
// pause, so the modeled pause is dropped.
type engineTarget struct{ r *engine.Run }

func (t engineTarget) DrainInterval() metrics.IntervalReport { return t.r.DrainInterval() }
func (t engineTarget) Allocation() map[string]int            { return t.r.Allocation() }
func (t engineTarget) Rebalance(alloc map[string]int, _ time.Duration) error {
	return t.r.Rebalance(alloc)
}

// EngineTarget adapts a started engine topology for supervision.
func EngineTarget(r *engine.Run) Target { return engineTarget{r} }

// Pool is the resource negotiator the supervisor charges transitions to:
// it prices rebalances and grows/shrinks the processor budget for scale
// decisions (the paper's Appendix-B negotiator). *cluster.Pool implements
// it; FixedPool serves budget-only (Program (4)) deployments.
type Pool interface {
	// Kmax is the processor budget currently on offer.
	Kmax() int
	// Rebalance records an executor remap and returns its modeled pause.
	Rebalance() cluster.Transition
	// Resize negotiates the pool to cover targetKmax processors.
	Resize(targetKmax int) (cluster.Transition, error)
}

var (
	_ Pool = (*cluster.Pool)(nil)
	_ Pool = (*cluster.Tenant)(nil)
)

// TenantReporter is the optional half of the multi-tenant request/grant
// protocol: a Pool that is really an arbitrated lease (cluster.Tenant)
// implements it, and the supervisor pushes a fresh utility
// self-assessment every decision round so the scheduler can compare this
// topology's marginal sojourn-time benefit against the other tenants'.
type TenantReporter interface {
	Report(cluster.TenantReport)
}

var _ TenantReporter = (*cluster.Tenant)(nil)

// ChurnReporter is the optional failure-domain half of an arbitrated
// lease: LostSlots reports the cumulative slots machine failures have
// taken from the grant. The supervisor diffs successive reads to tell a
// failover shrink (SlotsLost) from a preemption — both vacate slots
// outside the cooldown gate, but they are different operational events
// (a failover resolves by machine recovery or replacement, a preemption
// by the claimant's violation clearing).
type ChurnReporter interface {
	LostSlots() int
}

var _ ChurnReporter = (*cluster.Tenant)(nil)

// fixedPool is a Pool with an immutable budget and free rebalances.
type fixedPool int

func (p fixedPool) Kmax() int                     { return int(p) }
func (p fixedPool) Rebalance() cluster.Transition { return cluster.Transition{Kind: "rebalance"} }
func (p fixedPool) Resize(int) (cluster.Transition, error) {
	return cluster.Transition{}, ErrFixedPool
}

// FixedPool returns a Pool with a constant processor budget and free,
// instantaneous rebalances — the ModeMinLatency deployment where the
// cluster is whatever it is and only the split is negotiable.
func FixedPool(kmax int) Pool { return fixedPool(kmax) }

// Source turns interval reports into controller snapshots.
// *metrics.Measurer is the production implementation; tests may script one.
type Source interface {
	AddInterval(metrics.IntervalReport) error
	Snapshot() (core.Snapshot, error)
	Reset()
}

var _ Source = (*metrics.Measurer)(nil)

const (
	// failureThreshold is how many failures of one action kind within
	// the failure window (failureWindowCooldowns·Cooldown) suppress that
	// kind; the window also bounds how long a suppression lasts.
	failureThreshold       = 3
	failureWindowCooldowns = 10
	// maxHistory caps the retained Event log; the oldest events are
	// dropped past it, keeping a long-lived daemon's memory bounded.
	maxHistory = 1024
)

// Config assembles a supervisor.
type Config struct {
	// Target is the system under supervision (required).
	Target Target
	// Operators are the topology-ordered operator names; they fix the
	// layout of snapshots and allocation vectors (required).
	Operators []string
	// Stepper is the decision policy — *core.Controller for DRS, or the
	// threshold baseline (required).
	Stepper core.Stepper
	// Pool is the resource negotiator (required; use FixedPool for a
	// constant budget).
	Pool Pool
	// Source produces snapshots from interval reports. Nil builds a
	// metrics.Measurer over Operators with the paper's 6-interval window.
	//
	//checkdoc:testonly test seam: the loop's tests script the snapshots a round sees
	Source Source
	// Interval is the measurement cadence Tm used by Start (required).
	Interval time.Duration
	// Cooldown is how long after an applied (or failed) action the
	// supervisor only observes: the post-transition backlog drains and the
	// reset measurer re-warms before the next decision. Default 4·Interval,
	// matching the paper's guidance that Tm spans several collection
	// rounds after a reconfiguration.
	Cooldown time.Duration
	// Logger receives structured loop events; nil discards them.
	Logger *slog.Logger
	// Clock reads the time; tests and virtual-time drivers (the simulator)
	// substitute it to step the supervisor deterministically. Nil means
	// time.Now.
	Clock func() time.Time
	// Resume seeds the supervisor from a persisted checkpoint of a prior
	// process life: the round counter continues instead of restarting at
	// zero, and any cooldown that was in force at capture time is
	// re-imposed (capped at Cooldown) so a crash-restart cannot flap
	// around the hysteresis the previous life had already earned. Nil
	// means a cold start.
	Resume *PersistedState
	// Tenant labels this supervisor's decision-log records (optional).
	Tenant string
	// DecisionLog, when set, receives every recorded event — applied
	// re-fits, failed applies, suppression episodes, forced shrinks — as
	// a structured record. Hold rounds record nothing, so the 0-alloc
	// steady-state tick is untouched.
	DecisionLog *obs.Log
	// Sojourn, when set, observes each measured round's end-to-end
	// sojourn (seconds) — the per-tenant latency histogram behind
	// /metrics. Observation is a few atomic adds.
	Sojourn *obs.Histogram
	// ShedFrac, when set, observes each measured round's shed fraction
	// (offered minus admitted over offered).
	ShedFrac *obs.Histogram
}

// PersistedState is the supervisor state worth carrying across a process
// restart — captured by PersistedState(), persisted in the WAL
// checkpoint, and fed back through Config.Resume on the next boot. The
// measurement history is deliberately NOT persisted: after a restart the
// workload must be re-measured, only the decision hysteresis carries
// over.
type PersistedState struct {
	// Rounds is the completed control-round count.
	Rounds int64 `json:"rounds"`
	// CooldownRemaining is how much of an in-force cooldown was left at
	// capture time.
	CooldownRemaining time.Duration `json:"cooldown_remaining"`
}

// Event is one decision round that mattered: an applied action, a failed
// apply, or the start of a suppression episode. Pure holds (ActionNone,
// cooldown, warmup) are not recorded — they happen every few seconds
// forever — and for the same reason an ongoing suppression is recorded
// once when it begins, not on every suppressed round.
type Event struct {
	// At is the supervisor clock time of the round.
	At time.Time
	// Action is what the controller asked for.
	Action core.Action
	// Target is the allocation the decision carried (topology order).
	Target []int
	// Kmax is the pool budget after the round.
	Kmax int
	// Estimated is the model's E[T] for Target, in seconds.
	Estimated float64
	// Pause is the modeled transition pause charged by the pool.
	Pause time.Duration
	// Reason is the controller's justification.
	Reason string
	// Applied reports whether the allocation was put in force.
	Applied bool
	// Suppressed reports a decision skipped by the failure tracker.
	Suppressed bool
	// Preempted reports a forced shrink: the cluster arbiter moved leased
	// slots to another tenant and this supervisor vacated them.
	Preempted bool
	// SlotsLost reports a failover shrink: machine failure took leased
	// slots down with it and this supervisor re-fit its allocation to the
	// surviving grant.
	SlotsLost bool
	// Err is the apply failure, when there was one.
	Err error
}

// Supervisor owns one supervised run: on every tick it drains a
// measurement interval into the source, asks the stepper for a decision,
// and actuates rebalance/scale verdicts through the pool and the target —
// with cooldown hysteresis between actions and suppression of
// repeatedly-failing ones. Drive it with Start/Stop against the wall
// clock, or call Observe/Tick yourself in virtual time.
type Supervisor struct {
	cfg   Config
	now   func() time.Time
	log   *slog.Logger
	fails *failureTracker
	// tmax is the stepper's latency target (0 when it has none), read once
	// from the optional Tmax method a *core.Controller provides.
	tmax float64

	mu            sync.Mutex
	cooldownUntil time.Time
	// offered and admitted are the round's model — the one place this
	// package asks §III-B anything: at the demand clients offered (what the
	// stepper, the tenant bid and the first fit see) and at the admitted
	// rates (what actually flows while the gate sheds; the fit's fallback).
	// Both are re-pointed in place once per round, under mu; modelOK says
	// the round's rates made a valid model.
	offered, admitted core.Model
	modelOK           bool
	// lastSnap is the last measured round's snapshot as the stepper saw it,
	// minus Ops (those live in offered) — and, once an actuation has been
	// applied since, with the Alloc and Kmax now in force and no
	// MeasuredSojourn: see finishRound.
	lastSnap core.Snapshot
	haveSnap bool
	// lastAllocTotal caches the slot total of the most recent allocation
	// this supervisor observed or applied, so the per-tick preemption
	// check can skip the target's Allocation() map walk while the grant
	// comfortably covers it.
	lastAllocTotal int
	// seenLostSlots is the lease's cumulative failure-loss counter at the
	// last look; a higher reading marks the next forced shrink as
	// failover (SlotsLost) rather than preemption.
	seenLostSlots int
	history       []Event // ring once maxHistory is reached
	histStart     int     // oldest event's index once the ring is full
	rounds        int64
	// allocBuf backs allocVector's result across rounds. Ticks are
	// serialized and every internal reader consumes it (and the models
	// above) within its round, so reuse keeps the steady-state hold round
	// allocation-free; all are written only under mu, and LastSnapshot
	// copies before handing anything out.
	allocBuf []int

	runMu   sync.Mutex
	stop    chan struct{}
	stopped chan struct{}
}

// New validates the config, fills defaults and builds a supervisor.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Target == nil {
		return nil, errors.New("loop: Target is required")
	}
	if len(cfg.Operators) == 0 {
		return nil, errors.New("loop: Operators is required")
	}
	if cfg.Stepper == nil {
		return nil, errors.New("loop: Stepper is required")
	}
	if cfg.Pool == nil {
		return nil, errors.New("loop: Pool is required")
	}
	if cfg.Interval <= 0 {
		return nil, errors.New("loop: Interval must be positive")
	}
	if cfg.Cooldown < 0 {
		return nil, errors.New("loop: negative Cooldown")
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = 4 * cfg.Interval
	}
	if cfg.Source == nil {
		m, err := metrics.NewMeasurer(metrics.MeasurerConfig{
			OperatorNames: cfg.Operators,
			Smoothing:     metrics.SmoothingSpec{Kind: "window", Window: 6},
		})
		if err != nil {
			return nil, err
		}
		cfg.Source = m
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &Supervisor{
		cfg:   cfg,
		now:   cfg.Clock,
		log:   cfg.Logger,
		fails: newFailureTracker(failureThreshold, failureWindowCooldowns*cfg.Cooldown, cfg.Logger),
	}
	if t, ok := cfg.Stepper.(interface{ Tmax() float64 }); ok {
		s.tmax = t.Tmax()
	}
	if r := cfg.Resume; r != nil {
		s.rounds = r.Rounds
		if cd := r.CooldownRemaining; cd > 0 {
			if cd > cfg.Cooldown {
				cd = cfg.Cooldown
			}
			s.cooldownUntil = s.now().Add(cd)
		}
	}
	return s, nil
}

// PersistedState captures the restart-worthy supervisor state (see the
// type's doc). Safe to call concurrently with the running loop.
func (s *Supervisor) PersistedState() PersistedState {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := PersistedState{Rounds: s.rounds}
	if s.cooldownUntil.After(now) {
		st.CooldownRemaining = s.cooldownUntil.Sub(now)
	}
	return st
}

// Start launches the wall-clock loop: one Tick every Interval until Stop.
// It does not own the target's lifecycle — stop the engine separately.
func (s *Supervisor) Start() error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if s.stop != nil {
		return ErrRunning
	}
	s.stop = make(chan struct{})
	s.stopped = make(chan struct{})
	go s.run(s.stop, s.stopped)
	s.log.Info("supervisor started", slog.Duration("interval", s.cfg.Interval),
		slog.Duration("cooldown", s.cfg.Cooldown))
	return nil
}

func (s *Supervisor) run(stop <-chan struct{}, stopped chan<- struct{}) {
	defer close(stopped)
	tick := time.NewTicker(s.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			s.Tick()
		}
	}
}

// Stop halts the wall-clock loop and waits for the in-flight tick. It is a
// no-op when the supervisor is not running.
func (s *Supervisor) Stop() {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if s.stop == nil {
		return
	}
	close(s.stop)
	<-s.stopped
	s.stop, s.stopped = nil, nil
	s.log.Info("supervisor stopped", slog.Int64("rounds", s.Rounds()))
}

// Observe ingests one measurement interval without deciding — the passive
// half of a round, used while the controller is disabled (the experiments'
// warmup phases) or before handing control to Start.
func (s *Supervisor) Observe() {
	rep := s.cfg.Target.DrainInterval()
	if err := s.cfg.Source.AddInterval(rep); err != nil {
		s.log.Warn("bad interval report", slog.Any("err", err))
	}
}

// Tick runs one full control round: measure, re-point the round's model,
// decide (and bid, under a lease), actuate. Callers driving virtual time
// call it directly; Start calls it on a wall-clock ticker. Ticks must not
// run concurrently with each other or with Observe.
func (s *Supervisor) Tick() {
	s.Observe()
	s.mu.Lock()
	s.rounds++
	cooldownUntil := s.cooldownUntil
	s.mu.Unlock()

	now := s.now()
	// Preemption outranks the cooldown: if the arbiter's grant dropped
	// below the allocation in force, the slots are gone whether or not
	// this supervisor cooperates — vacate them now.
	if s.shrinkToGrant(now) {
		return
	}
	// No forced shrink this tick: consume any failure-loss reading that
	// never forced a re-fit (the shrunken grant still covered the
	// allocation), so a later preemption is not misattributed to it.
	s.syncLostSlots()
	if now.Before(cooldownUntil) {
		return
	}
	snap, err := s.cfg.Source.Snapshot()
	if err != nil {
		// Warmup is not an error: the measurer fills in over the first
		// intervals (and after every post-action Reset).
		if !errors.Is(err, metrics.ErrNotReady) && !errors.Is(err, metrics.ErrIncomplete) {
			s.log.Warn("snapshot failed", slog.Any("err", err))
		}
		return
	}
	alloc, ok := s.allocVector()
	if !ok {
		return
	}
	snap.Alloc = alloc
	snap.Kmax = s.cfg.Pool.Kmax()
	// Scale-on-offered-load: when an ingest tier is shedding, the admitted
	// rates describe the post-shed remainder, not the demand. The stepper
	// sees the model at the offered rate, so the controller provisions
	// against what clients are actually sending — and the admission
	// controller can stop shedding once the grant catches up.
	shedFraction, scale := 0.0, 1.0
	if snap.OfferedLambda0 > snap.Lambda0 && snap.Lambda0 > 0 {
		shedFraction = (snap.OfferedLambda0 - snap.Lambda0) / snap.OfferedLambda0
		scale = snap.OfferedLambda0 / snap.Lambda0
	}
	s.mu.Lock()
	// snap.Ops is the measurer's scratch, overwritten by its next Snapshot
	// call: the models copy it into supervisor-owned storage. An invalid
	// round (λ̂0 = 0 on an idle front door) goes to the stepper as measured
	// and is refused there.
	s.modelOK = s.admitted.Reset(snap.Lambda0, snap.Ops) == nil && s.offered.Scale(&s.admitted, scale) == nil
	if s.modelOK {
		snap.Ops = s.offered.Ops()
	}
	if shedFraction > 0 {
		snap.Lambda0 = snap.OfferedLambda0
	}
	s.lastSnap, s.haveSnap = snap, true
	s.lastSnap.Ops = nil
	s.lastAllocTotal = sumInts(alloc)
	s.mu.Unlock()
	s.reportTenant(snap, shedFraction > 0)
	s.cfg.Sojourn.Observe(snap.MeasuredSojourn)
	s.cfg.ShedFrac.Observe(shedFraction)

	d, err := s.cfg.Stepper.Step(snap)
	if err != nil {
		// The measured rates put Tmax below the service-time floor, or even
		// the minimum stable allocation exceeds the grant (a heavy-tailed
		// measurement window, or demand far past a preempted lease): no
		// allocation this round helps, so hold and re-measure next round —
		// the admission gate sheds the excess in the meantime.
		if errors.Is(err, core.ErrUnreachableTarget) || errors.Is(err, core.ErrInsufficientResources) {
			if s.debugEnabled() {
				s.log.Debug("target unreachable; holding", slog.Any("err", err))
			}
			return
		}
		s.log.Warn("controller step failed", slog.Any("err", err))
		return
	}
	if d.Action == core.ActionNone {
		// Gated so the steady-state hold round (this branch, every Tm
		// forever) pays no attr-slice allocation when debug is off.
		if s.debugEnabled() {
			s.log.Debug("holding", slog.String("reason", d.Reason))
		}
		return
	}
	kind := d.Action.String()
	if skip, first := s.fails.shouldSkip(kind, now); skip {
		if first { // record the episode once, not every suppressed round
			s.record(Event{At: now, Action: d.Action, Target: d.Target, Kmax: snap.Kmax,
				Estimated: d.Estimated, Reason: d.Reason, Suppressed: true})
			s.log.Info("decision suppressed", slog.String("action", kind), slog.String("reason", d.Reason))
		}
		return
	}
	s.apply(now, d)
}

// apply actuates one decision: charge the pool, fit a partial grant, and
// hand the result to actuate. Failures are recorded for suppression and
// still start a cooldown — after a failed quiesce the engine just spent
// its timeout paused, and an immediate retry would too.
func (s *Supervisor) apply(now time.Time, d core.Decision) {
	kind := d.Action.String()
	kmaxBefore := s.cfg.Pool.Kmax()
	ev := Event{At: now, Action: d.Action, Target: d.Target, Estimated: d.Estimated, Reason: d.Reason}
	if d.Action == core.ActionRebalance {
		ev.Pause = s.cfg.Pool.Rebalance().Pause
	} else {
		tr, err := s.cfg.Pool.Resize(d.TargetKmax)
		if err != nil {
			// A capacity refusal is a negotiation outcome, not a loop
			// failure: nothing was disturbed and no pause was paid, so
			// hold this round — without cooldown or failure tracking — and
			// re-evaluate next tick (a within-pool rebalance decided then
			// must not sit out a cooldown the refusal never earned).
			if errors.Is(err, cluster.ErrNoCapacity) {
				s.log.Info("pool at capacity; holding", slog.String("action", kind),
					slog.Int("target_kmax", d.TargetKmax), slog.Any("err", err))
				return
			}
			s.failRound(kind, ev, err, kmaxBefore)
			s.log.Warn("pool resize refused", slog.String("action", kind),
				slog.Int("target_kmax", d.TargetKmax), slog.Any("err", err))
			return
		}
		ev.Pause = tr.Pause
	}
	// Partial grant: an arbitrated pool may have granted fewer slots than
	// the decision asked for. The decision's allocation was optimized for
	// the full request, so re-solve it for the budget actually granted.
	if granted := s.cfg.Pool.Kmax(); granted < d.TargetKmax && d.Target != nil {
		refit, err := s.fit(granted)
		if err != nil {
			s.failRound(kind, ev, err, kmaxBefore)
			s.log.Warn("partial grant unusable", slog.String("action", kind),
				slog.Int("granted", granted), slog.Int("requested", d.TargetKmax), slog.Any("err", err))
			return
		}
		s.log.Info("partial grant", slog.Int("requested", d.TargetKmax), slog.Int("granted", granted))
		ev.Target = refit
	}
	if err := s.actuate(kind, ev, kmaxBefore); err != nil {
		s.log.Warn("rebalance failed", slog.String("action", kind), slog.Any("err", err))
		return
	}
	s.log.Info("decision applied", slog.String("action", kind),
		slog.Any("alloc", ev.Target), slog.Int("kmax", s.cfg.Pool.Kmax()),
		slog.Duration("pause", ev.Pause), slog.String("reason", d.Reason))
}

// actuate is the one path that puts an allocation in force: rebalance the
// target to ev.Target under the pause the pool already charged, then
// finish the round — on success the old measurements no longer describe
// the configuration, so the source is reset and the event recorded as
// Applied; on error the round fails through failRound. Both start the
// cooldown.
func (s *Supervisor) actuate(kind string, ev Event, kmaxBefore int) error {
	alloc, err := core.Decision{Target: ev.Target}.AllocMap(s.cfg.Operators)
	if err == nil {
		err = s.cfg.Target.Rebalance(alloc, ev.Pause)
	}
	if err != nil {
		s.failRound(kind, ev, err, kmaxBefore)
		return err
	}
	s.fails.recordSuccess(kind)
	s.cfg.Source.Reset()
	ev.Kmax, ev.Applied = s.cfg.Pool.Kmax(), true
	s.finishRound(ev)
	return nil
}

// failRound is the one failure exit of an actuation: count the failure
// toward suppression, hand back whatever budget the round negotiated, and
// record the event with its error. The rollback is best-effort: the
// allocation never changed, so the budget should not stay charged —
// machines on a private pool, or granted slots on an arbitrated lease (a
// lease's grant can grow without any machine change, and hoarding it would
// starve the other tenants).
func (s *Supervisor) failRound(kind string, ev Event, err error, kmaxBefore int) {
	s.fails.recordFailure(kind, err, ev.At)
	if s.cfg.Pool.Kmax() != kmaxBefore {
		if _, rbErr := s.cfg.Pool.Resize(kmaxBefore); rbErr != nil {
			s.log.Warn("pool rollback failed", slog.Any("err", rbErr))
		}
	}
	ev.Kmax, ev.Err = s.cfg.Pool.Kmax(), err
	s.finishRound(ev)
}

// fit solves Algorithm 1 for budget on the round's model — the re-fit of
// a partial grant and of a forced shrink. Offered demand first; when that
// cannot even run stably on the budget (the regime where the ingest gate
// is shedding) it falls back to the admitted rates: fit what actually
// flows, and let the next rounds re-negotiate for the rest. Tick-goroutine
// only, like every reader of the round's model outside mu.
func (s *Supervisor) fit(budget int) ([]int, error) {
	if !s.modelOK {
		return nil, errors.New("loop: no snapshot to re-fit a partial grant from")
	}
	target, err := s.offered.AssignProcessors(budget)
	if err != nil && s.admitted.Lambda0() < s.offered.Lambda0() {
		return s.admitted.AssignProcessors(budget)
	}
	return target, err
}

// reportTenant pushes a utility self-assessment to the pool when it is an
// arbitrated lease: λ̂0, whether the tenant violates its Tmax, and the
// marginal benefit/cost of one slot in the cross-tenant-comparable
// Equation (3) numerator units. It asks the model at offered demand, so
// the bid reflects offered load.
func (s *Supervisor) reportTenant(snap core.Snapshot, shedding bool) {
	rep, ok := s.cfg.Pool.(TenantReporter)
	if !ok || !s.modelOK {
		return
	}
	grow, err := s.offered.GrowBenefit(snap.Alloc)
	if err != nil {
		return
	}
	shrink, err := s.offered.ShrinkCost(snap.Alloc)
	if err != nil {
		return
	}
	rep.Report(cluster.TenantReport{
		Lambda0: snap.Lambda0,
		// A shedding tenant is violating by construction: the shed traffic
		// is demand its grant already failed to serve, whatever the
		// measured sojourn of the admitted remainder says.
		Violating:   shedding || s.offered.Violates(snap.Alloc, snap.MeasuredSojourn, s.tmax),
		GrowBenefit: grow,
		ShrinkCost:  shrink,
	})
}

// shrinkToGrant is the graceful-shrink half of the request/grant protocol:
// when the pool budget has dropped below the allocation in force — the
// cluster arbiter preempted leased slots for another tenant, or a machine
// failure took them down — rebalance down to fit the remaining grant and
// report whether the tick is consumed. The two causes are told apart
// through the lease's ChurnReporter counter and reported as Preempted or
// SlotsLost events; both re-solve outside the cooldown gate, because the
// slots are gone whether or not this supervisor cooperates. The shrunk
// allocation is the model optimum for the smaller budget when a snapshot
// exists, else slots are peeled off the largest operators.
func (s *Supervisor) shrinkToGrant(now time.Time) bool {
	budget := s.cfg.Pool.Kmax()
	if budget <= 0 {
		return false
	}
	s.mu.Lock()
	known := s.lastAllocTotal
	s.mu.Unlock()
	// Fast path: the grant covers the last allocation this supervisor saw
	// or applied (the only writer of allocations), so there is nothing to
	// vacate and no need to walk the target's allocation map.
	if known > 0 && budget >= known {
		return false
	}
	alloc, ok := s.allocVector()
	if !ok {
		return false
	}
	total := sumInts(alloc)
	if total <= budget {
		s.mu.Lock()
		s.lastAllocTotal = total
		s.mu.Unlock()
		return false
	}
	// Attribute the shrink: a fresh failure-loss reading marks failover.
	// The reading is consumed (seenLostSlots advanced) only once the
	// shrink is applied — a skipped or failed attempt must keep its
	// failover classification for the retry.
	lost := false
	lostCum := 0
	if cr, ok := s.cfg.Pool.(ChurnReporter); ok {
		lostCum = cr.LostSlots()
		s.mu.Lock()
		lost = lostCum > s.seenLostSlots
		s.mu.Unlock()
	}
	kind, cause := "preempt-shrink", "vacating preempted slots"
	if lost {
		kind, cause = "failover-shrink", "re-fitting after machine failure"
	}
	if skip, _ := s.fails.shouldSkip(kind, now); skip {
		return true
	}
	target := s.shrunkAlloc(alloc, budget)
	// A grant below one slot per operator cannot be fully vacated — the
	// fallback bottoms out at the physical floor. When that floor is the
	// allocation already in force there is nothing to apply: hold instead
	// of paying a rebalance pause every tick for an identical allocation.
	if allocEqual(target, alloc) {
		return false
	}
	tr := s.cfg.Pool.Rebalance()
	ev := Event{At: now, Action: core.ActionRebalance, Target: target,
		Pause: tr.Pause, Preempted: !lost, SlotsLost: lost,
		Reason: fmt.Sprintf("grant shrank to %d below allocation total %d; %s", budget, total, cause)}
	if err := s.actuate(kind, ev, budget); err != nil {
		s.log.Warn("forced shrink failed", slog.String("kind", kind), slog.Any("err", err))
		return true
	}
	if lost {
		s.mu.Lock()
		s.seenLostSlots = max(s.seenLostSlots, lostCum)
		s.mu.Unlock()
	}
	s.log.Info("shrank to grant", slog.String("cause", cause), slog.Any("alloc", target),
		slog.Int("kmax", budget), slog.Duration("pause", tr.Pause))
	return true
}

// syncLostSlots advances the consumed failure-loss reading to the lease's
// current cumulative counter. Called on ticks that needed no forced
// shrink: a loss that never forced a re-fit must not taint the
// classification of a later preemption shrink.
func (s *Supervisor) syncLostSlots() {
	cr, ok := s.cfg.Pool.(ChurnReporter)
	if !ok {
		return
	}
	cum := cr.LostSlots()
	s.mu.Lock()
	s.seenLostSlots = max(s.seenLostSlots, cum)
	s.mu.Unlock()
}

// debugEnabled reports whether the logger would emit debug records.
func (s *Supervisor) debugEnabled() bool {
	return s.log.Enabled(context.Background(), slog.LevelDebug)
}

// sumInts totals a slot vector.
func sumInts(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// allocEqual reports whether two allocation vectors match.
func allocEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// shrunkAlloc fits the current allocation into a smaller budget: the
// model's fit when there is one, else slots peeled off the largest
// operators.
func (s *Supervisor) shrunkAlloc(cur []int, budget int) []int {
	if target, err := s.fit(budget); err == nil {
		return target
	}
	// No usable model (startup, or the budget is below the minimum stable
	// allocation): peel slots off the largest operators, never below one.
	out := append([]int(nil), cur...)
	total := sumInts(out)
	for total > budget {
		big := -1
		for i, k := range out {
			if k > 1 && (big < 0 || k > out[big]) {
				big = i
			}
		}
		if big < 0 {
			break
		}
		out[big]--
		total--
	}
	return out
}

// finishRound records an event and starts the cooldown. The cooldown is
// anchored at the current clock time, not the round's start: a live
// rebalance can block for its whole quiesce timeout, and anchoring earlier
// would let the apply consume its own cooldown and retry immediately. An
// applied event's target becomes the allocation total in force — after the
// record is emitted, whose From is the total before — and the snapshot
// follows it: no round refreshes lastSnap through the cooldown and the
// measurer's re-warm, and a reader planning on it in the meantime (the
// ingest gate) must size to the allocation and grant that are running and
// must not judge them by a sojourn measured on the configuration they
// replaced. The rates stay the last measured ones; a failed round changed
// nothing and leaves the snapshot alone.
func (s *Supervisor) finishRound(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cooldownUntil = s.now().Add(s.cfg.Cooldown)
	s.appendLocked(ev)
	if ev.Applied {
		s.lastAllocTotal = sumInts(ev.Target)
		if s.haveSnap {
			s.allocBuf = append(s.allocBuf[:0], ev.Target...)
			s.lastSnap.Alloc, s.lastSnap.Kmax, s.lastSnap.MeasuredSojourn = s.allocBuf, ev.Kmax, 0
		}
	}
}

// record appends an event without touching the cooldown.
func (s *Supervisor) record(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendLocked(ev)
}

// appendLocked appends under s.mu. Once maxHistory events exist the slice
// becomes a ring and the oldest event is overwritten in place — O(1) per
// event, so a long-lived daemon neither grows nor re-copies its log. Every
// appended event is mirrored into the decision log (hold rounds never
// reach here, so the steady-state tick stays allocation-free).
func (s *Supervisor) appendLocked(ev Event) {
	if s.cfg.DecisionLog != nil {
		kind := obs.KindRefit
		switch {
		case ev.Suppressed:
			kind = obs.KindSuppress
		case ev.Err != nil:
			kind = obs.KindRefitFailed
		}
		s.cfg.DecisionLog.Emit(&obs.Record{
			At:   ev.At.UnixNano(),
			Kind: kind, Tenant: s.cfg.Tenant,
			From: s.lastAllocTotal, To: sumInts(ev.Target),
			Gain: ev.Estimated, PauseNS: ev.Pause.Nanoseconds(),
			Flag: ev.Preempted || ev.SlotsLost, Detail: ev.Reason,
		})
	}
	if len(s.history) < maxHistory {
		s.history = append(s.history, ev)
		return
	}
	s.history[s.histStart] = ev
	s.histStart = (s.histStart + 1) % len(s.history)
}

// allocVector reads the target's current allocation in operator order. The
// returned slice is scratch storage valid until the next allocVector call;
// it is filled under mu so LastSnapshot's copy never races a refill.
func (s *Supervisor) allocVector() ([]int, bool) {
	m := s.cfg.Target.Allocation()
	s.mu.Lock()
	if cap(s.allocBuf) < len(s.cfg.Operators) {
		s.allocBuf = make([]int, len(s.cfg.Operators))
	}
	out := s.allocBuf[:len(s.cfg.Operators)]
	for i, name := range s.cfg.Operators {
		n, ok := m[name]
		if !ok {
			s.mu.Unlock()
			s.log.Warn("target allocation missing operator", slog.String("operator", name))
			return nil, false
		}
		out[i] = n
	}
	s.mu.Unlock()
	return out, true
}

// History returns a copy of every recorded event, in order.
func (s *Supervisor) History() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.history))
	n := copy(out, s.history[s.histStart:])
	copy(out[n:], s.history[:s.histStart])
	return out
}

// LastSnapshot returns the most recent snapshot handed to the stepper —
// a live view of λ̂0, per-operator rates and measured sojourn for
// dashboards and the ingest gate's plan — and whether one exists yet.
// Between rounds it describes what is running: from an applied actuation
// (a decision, a preemption or failover shrink) until the next measured
// round — the cooldown plus the measurer's re-warm — Alloc and Kmax are the
// allocation and grant that actuation put in force and MeasuredSojourn is
// zero, because nothing has measured that configuration yet; the rates are
// still the last measured ones. The Ops and Alloc slices are copies: the
// supervisor's own views live in scratch storage the next round overwrites.
func (s *Supervisor) LastSnapshot() (core.Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.lastSnap
	if s.modelOK {
		snap.Ops = s.offered.Rates()
	}
	snap.Alloc = append([]int(nil), snap.Alloc...)
	return snap, s.haveSnap
}

// ModelSojourn returns Equation (3)'s E[T], in seconds, of the last
// round's model at offered demand for LastSnapshot's allocation — the one
// that round measured, or the one applied since — the model's verdict
// beside the measured one, and whether there is one.
func (s *Supervisor) ModelSojourn() (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.modelOK {
		return 0, false
	}
	est, err := s.offered.ExpectedSojourn(s.lastSnap.Alloc)
	return est, err == nil
}

// Rounds reports how many control rounds have run (Ticks, not Observes).
func (s *Supervisor) Rounds() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds
}

// String renders one event line, for operator logs and demo output.
func (e Event) String() string {
	status := "applied"
	switch {
	case e.Suppressed:
		status = "suppressed"
	case e.Err != nil:
		status = "failed: " + e.Err.Error()
	}
	return fmt.Sprintf("%-9s -> %v Kmax=%d est=%.1fms pause=%.1fs [%s] %s",
		e.Action, e.Target, e.Kmax, e.Estimated*1e3, e.Pause.Seconds(), status, e.Reason)
}
