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

// Clock abstracts time so tests and virtual-time drivers (the simulator)
// can step the supervisor deterministically.
type Clock interface {
	Now() time.Time
}

// wallClock is the production clock.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

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
	// Clock defaults to the wall clock.
	Clock Clock
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
	clock Clock
	log   *slog.Logger
	fails *failureTracker

	mu            sync.Mutex
	cooldownUntil time.Time
	lastSnap      core.Snapshot
	// lastRawSnap is lastSnap before demand scaling: the admitted-rate
	// view. Re-fits fall back to it when a partial grant cannot even hold
	// the offered-demand rates stably (the admission gate is shedding the
	// difference, so the admitted rates are what actually flows).
	lastRawSnap core.Snapshot
	haveSnap    bool
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
	suppressing   map[string]bool // action kinds in an ongoing suppression episode
	// allocBuf backs allocVector's result across rounds, and opsBuf /
	// rawOpsBuf back the Ops slices of lastSnap / lastRawSnap (the
	// measurer reuses its own snapshot storage, so the retained copy must
	// be supervisor-owned). Ticks are serialized and every internal reader
	// consumes these within its round, so reuse keeps the steady-state
	// hold round allocation-free; the buffers are written only under mu,
	// and LastSnapshot copies before handing anything out.
	allocBuf  []int
	opsBuf    []core.OpRates
	rawOpsBuf []core.OpRates

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
		cfg.Clock = wallClock{}
	}
	s := &Supervisor{
		cfg:         cfg,
		clock:       cfg.Clock,
		log:         cfg.Logger,
		fails:       newFailureTracker(failureThreshold, failureWindowCooldowns*cfg.Cooldown, cfg.Logger),
		suppressing: make(map[string]bool),
	}
	if r := cfg.Resume; r != nil {
		s.rounds = r.Rounds
		if cd := r.CooldownRemaining; cd > 0 {
			if cd > cfg.Cooldown {
				cd = cfg.Cooldown
			}
			s.cooldownUntil = s.clock.Now().Add(cd)
		}
	}
	return s, nil
}

// PersistedState captures the restart-worthy supervisor state (see the
// type's doc). Safe to call concurrently with the running loop.
func (s *Supervisor) PersistedState() PersistedState {
	now := s.clock.Now()
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

// Tick runs one full control round: observe, snapshot, decide, actuate.
// Callers driving virtual time call it directly; Start calls it on a
// wall-clock ticker. Ticks must not run concurrently with each other or
// with Observe.
func (s *Supervisor) Tick() {
	s.Observe()
	s.mu.Lock()
	s.rounds++
	cooldownUntil := s.cooldownUntil
	s.mu.Unlock()

	now := s.clock.Now()
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
	// rates describe the post-shed remainder, not the demand. Inflate the
	// snapshot to the offered rate (every λ̂_i scales linearly with λ̂0 in a
	// Jackson network) before deciding, so the controller provisions
	// against what clients are actually sending — and the admission
	// controller can stop shedding once the grant catches up.
	raw := snap
	shedFraction := 0.0
	if snap.OfferedLambda0 > snap.Lambda0 && snap.Lambda0 > 0 {
		shedFraction = (snap.OfferedLambda0 - snap.Lambda0) / snap.OfferedLambda0
		scale := snap.OfferedLambda0 / snap.Lambda0
		scaled := make([]core.OpRates, len(snap.Ops))
		for i, op := range snap.Ops {
			op.Lambda *= scale
			scaled[i] = op
		}
		snap.Ops = scaled
		snap.Lambda0 = snap.OfferedLambda0
	}
	s.mu.Lock()
	s.lastSnap, s.lastRawSnap, s.haveSnap = snap, raw, true
	// Re-point the retained snapshots at supervisor-owned storage: snap.Ops
	// is the measurer's scratch, overwritten by its next Snapshot call.
	s.opsBuf = append(s.opsBuf[:0], snap.Ops...)
	s.lastSnap.Ops = s.opsBuf
	s.rawOpsBuf = append(s.rawOpsBuf[:0], raw.Ops...)
	s.lastRawSnap.Ops = s.rawOpsBuf
	s.lastAllocTotal = sumInts(alloc)
	s.mu.Unlock()
	s.reportTenant(snap, shedFraction)
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
	if s.fails.shouldSkip(kind, now) {
		s.mu.Lock()
		ongoing := s.suppressing[kind]
		s.suppressing[kind] = true
		s.mu.Unlock()
		if !ongoing { // record the episode once, not every suppressed round
			s.record(Event{At: now, Action: d.Action, Target: d.Target, Kmax: snap.Kmax,
				Estimated: d.Estimated, Reason: d.Reason, Suppressed: true})
			s.log.Info("decision suppressed", slog.String("action", kind), slog.String("reason", d.Reason))
		}
		return
	}
	s.mu.Lock()
	delete(s.suppressing, kind)
	s.mu.Unlock()
	s.apply(now, d)
}

// apply actuates one decision: charge the pool, rebalance the target, and
// on success reset measurements and enter cooldown. Failures are recorded
// for suppression and still start a cooldown — after a failed quiesce the
// engine just spent its timeout paused, and an immediate retry would too.
func (s *Supervisor) apply(now time.Time, d core.Decision) {
	kind := d.Action.String()
	kmaxBefore := s.cfg.Pool.Kmax()
	var tr cluster.Transition
	var err error
	switch d.Action {
	case core.ActionRebalance:
		tr = s.cfg.Pool.Rebalance()
	default:
		tr, err = s.cfg.Pool.Resize(d.TargetKmax)
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
			s.fails.recordFailure(kind, err, now)
			s.finishRound(Event{At: now, Action: d.Action, Target: d.Target,
				Kmax: kmaxBefore, Estimated: d.Estimated, Reason: d.Reason, Err: err})
			s.log.Warn("pool resize refused", slog.String("action", kind),
				slog.Int("target_kmax", d.TargetKmax), slog.Any("err", err))
			return
		}
	}
	// Partial grant: an arbitrated pool may have granted fewer slots than
	// the decision asked for. The decision's allocation was optimized for
	// the full request, so re-solve it for the budget actually granted.
	if granted := s.cfg.Pool.Kmax(); granted < d.TargetKmax && d.Target != nil {
		refit, rerr := s.refitTarget(granted)
		if rerr != nil {
			s.fails.recordFailure(kind, rerr, now)
			if s.cfg.Pool.Kmax() != kmaxBefore {
				if _, rbErr := s.cfg.Pool.Resize(kmaxBefore); rbErr != nil {
					s.log.Warn("pool rollback failed", slog.Any("err", rbErr))
				}
			}
			s.finishRound(Event{At: now, Action: d.Action, Target: d.Target,
				Kmax: s.cfg.Pool.Kmax(), Estimated: d.Estimated, Pause: tr.Pause,
				Reason: d.Reason, Err: rerr})
			s.log.Warn("partial grant unusable", slog.String("action", kind),
				slog.Int("granted", granted), slog.Int("requested", d.TargetKmax), slog.Any("err", rerr))
			return
		}
		s.log.Info("partial grant", slog.Int("requested", d.TargetKmax), slog.Int("granted", granted))
		d.Target = refit
		d.TargetKmax = granted
	}
	alloc, err := d.AllocMap(s.cfg.Operators)
	if err == nil {
		err = s.cfg.Target.Rebalance(alloc, tr.Pause)
	}
	if err != nil {
		s.fails.recordFailure(kind, err, now)
		// Best-effort pool rollback: the allocation never changed, so the
		// budget the resize negotiated should not stay charged — machines
		// on a private pool, or granted slots on an arbitrated lease (a
		// lease's grant can grow without any machine change, and hoarding
		// it would starve the other tenants).
		if s.cfg.Pool.Kmax() != kmaxBefore {
			if _, rbErr := s.cfg.Pool.Resize(kmaxBefore); rbErr != nil {
				s.log.Warn("pool rollback failed", slog.Any("err", rbErr))
			}
		}
		s.finishRound(Event{At: now, Action: d.Action, Target: d.Target,
			Kmax: s.cfg.Pool.Kmax(), Estimated: d.Estimated, Pause: tr.Pause,
			Reason: d.Reason, Err: err})
		s.log.Warn("rebalance failed", slog.String("action", kind), slog.Any("err", err))
		return
	}
	s.fails.recordSuccess(kind)
	// Old measurements do not describe the new configuration.
	s.cfg.Source.Reset()
	s.mu.Lock()
	s.lastAllocTotal = sumInts(d.Target)
	s.mu.Unlock()
	s.finishRound(Event{At: now, Action: d.Action, Target: d.Target,
		Kmax: s.cfg.Pool.Kmax(), Estimated: d.Estimated, Pause: tr.Pause,
		Reason: d.Reason, Applied: true})
	s.log.Info("decision applied", slog.String("action", kind),
		slog.Any("alloc", d.Target), slog.Int("kmax", s.cfg.Pool.Kmax()),
		slog.Duration("pause", tr.Pause), slog.String("reason", d.Reason))
}

// refitTarget re-solves the allocation for the budget an arbitrated pool
// actually granted, from the most recent snapshot's model. When the
// demand-scaled (offered-load) rates cannot even run stably on the grant
// — the regime where the ingest gate is shedding — it falls back to the
// admitted-rate snapshot: fit what actually flows, and let the next
// rounds re-negotiate for the rest.
func (s *Supervisor) refitTarget(granted int) ([]int, error) {
	s.mu.Lock()
	snap, raw, have := s.lastSnap, s.lastRawSnap, s.haveSnap
	s.mu.Unlock()
	if !have {
		return nil, errors.New("loop: no snapshot to re-fit a partial grant from")
	}
	fit := func(sn core.Snapshot) ([]int, error) {
		model, err := core.NewModel(sn.Lambda0, sn.Ops)
		if err != nil {
			return nil, err
		}
		return model.AssignProcessors(granted)
	}
	target, err := fit(snap)
	if err != nil && raw.Lambda0 < snap.Lambda0 {
		return fit(raw)
	}
	return target, err
}

// reportTenant pushes a utility self-assessment to the pool when it is an
// arbitrated lease: λ̂0, whether the tenant violates its Tmax, the shed
// fraction of its ingest tier, and the marginal benefit/cost of one slot
// in the cross-tenant-comparable Equation (3) numerator units. snap is the
// demand-scaled snapshot, so the bid reflects offered load.
func (s *Supervisor) reportTenant(snap core.Snapshot, shedFraction float64) {
	rep, ok := s.cfg.Pool.(TenantReporter)
	if !ok {
		return
	}
	model, err := core.NewModel(snap.Lambda0, snap.Ops)
	if err != nil {
		return
	}
	grow, err := model.GrowBenefit(snap.Alloc)
	if err != nil {
		return
	}
	shrink, err := model.ShrinkCost(snap.Alloc)
	if err != nil {
		return
	}
	// A shedding tenant is violating by construction: the shed traffic is
	// demand its grant already failed to serve, whatever the measured
	// sojourn of the admitted remainder says.
	violating := shedFraction > 0
	if t, ok := s.cfg.Stepper.(interface{ Tmax() float64 }); !violating && ok {
		if tmax := t.Tmax(); tmax > 0 {
			violating = snap.MeasuredSojourn > tmax
			if !violating {
				if est, eerr := model.ExpectedSojourn(snap.Alloc); eerr == nil && est > tmax {
					violating = true
				}
			}
		}
	}
	rep.Report(cluster.TenantReport{
		Lambda0:      snap.Lambda0,
		Violating:    violating,
		GrowBenefit:  grow,
		ShrinkCost:   shrink,
		ShedFraction: shedFraction,
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
	if s.fails.shouldSkip(kind, now) {
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
	m := make(map[string]int, len(s.cfg.Operators))
	for i, name := range s.cfg.Operators {
		m[name] = target[i]
	}
	tr := s.cfg.Pool.Rebalance()
	err := s.cfg.Target.Rebalance(m, tr.Pause)
	ev := Event{At: now, Action: core.ActionRebalance, Target: target, Kmax: budget,
		Pause: tr.Pause, Preempted: !lost, SlotsLost: lost,
		Reason: fmt.Sprintf("grant shrank to %d below allocation total %d; %s", budget, total, cause)}
	if err != nil {
		s.fails.recordFailure(kind, err, now)
		ev.Err = err
		s.finishRound(ev)
		s.log.Warn("forced shrink failed", slog.String("kind", kind), slog.Any("err", err))
		return true
	}
	s.fails.recordSuccess(kind)
	s.cfg.Source.Reset()
	s.mu.Lock()
	s.lastAllocTotal = sumInts(target)
	if lost && lostCum > s.seenLostSlots {
		s.seenLostSlots = lostCum
	}
	s.mu.Unlock()
	ev.Applied = true
	s.finishRound(ev)
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
	if cum > s.seenLostSlots {
		s.seenLostSlots = cum
	}
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

// shrunkAlloc fits the current allocation into a smaller budget.
func (s *Supervisor) shrunkAlloc(cur []int, budget int) []int {
	s.mu.Lock()
	snaps := [2]core.Snapshot{s.lastSnap, s.lastRawSnap}
	have := s.haveSnap
	s.mu.Unlock()
	if have {
		// Demand-scaled first; the admitted-rate view as fallback when the
		// offered load cannot run stably on the shrunken budget.
		for _, snap := range snaps {
			if model, err := core.NewModel(snap.Lambda0, snap.Ops); err == nil {
				if target, aerr := model.AssignProcessors(budget); aerr == nil {
					return target
				}
			}
		}
	}
	// No usable model (startup, or the budget is below the minimum stable
	// allocation): peel slots off the largest operators, never below one.
	out := append([]int(nil), cur...)
	total := 0
	for _, k := range out {
		total += k
	}
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
// would let the apply consume its own cooldown and retry immediately.
func (s *Supervisor) finishRound(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cooldownUntil = s.clock.Now().Add(s.cfg.Cooldown)
	s.appendLocked(ev)
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
// dashboards — and whether one exists yet. The Ops and Alloc slices are
// copies: the supervisor's own views live in scratch storage the next
// round overwrites.
func (s *Supervisor) LastSnapshot() (core.Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.lastSnap
	snap.Ops = append([]core.OpRates(nil), snap.Ops...)
	snap.Alloc = append([]int(nil), snap.Alloc...)
	return snap, s.haveSnap
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
