package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Mode selects which optimization problem the controller solves each round.
type Mode int

const (
	// ModeMinLatency solves Program (4): fixed processor budget Kmax,
	// minimize expected sojourn time.
	ModeMinLatency Mode = iota + 1
	// ModeMinResource solves Program (6): latency target Tmax, minimize the
	// number of processors (negotiating machines in and out as needed).
	ModeMinResource
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeMinLatency:
		return "min-latency"
	case ModeMinResource:
		return "min-resource"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Action is what the controller decided to do this round.
type Action int

const (
	// ActionNone: current allocation retained.
	ActionNone Action = iota
	// ActionRebalance: reassign processors among operators within the
	// current pool.
	ActionRebalance
	// ActionScaleOut: provision more processors (new machines) and
	// rebalance onto them.
	ActionScaleOut
	// ActionScaleIn: release processors (machines) and rebalance onto the
	// smaller pool.
	ActionScaleIn
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionRebalance:
		return "rebalance"
	case ActionScaleOut:
		return "scale-out"
	case ActionScaleIn:
		return "scale-in"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Snapshot is one round of measurements handed to the controller — the
// output of the measurer module after aggregation and smoothing.
type Snapshot struct {
	// Lambda0 is the measured external arrival rate λ̂0 — with an ingest
	// front end, the *admitted* rate.
	Lambda0 float64
	// OfferedLambda0 is the external rate clients *offered*, including
	// traffic an admission controller shed before it reached a spout. It
	// exceeds Lambda0 exactly while shedding is active; zero (or equal)
	// means no ingest tier / nothing shed. The supervisor scales the
	// snapshot up to this true demand before stepping the controller, so
	// provisioning follows offered load, not the post-shed remainder.
	OfferedLambda0 float64
	// Ops carries λ̂_i and µ̂_i per operator, in topology order.
	Ops []OpRates
	// MeasuredSojourn is E[T̂], the measured mean total sojourn time, from
	// tuple-tree completion tracking. Zero when unknown.
	MeasuredSojourn float64
	// Alloc is the allocation currently in force.
	Alloc []int
	// Kmax is the processor budget currently available (pool size).
	Kmax int
}

// Decision is the controller's verdict for one round.
type Decision struct {
	Action Action
	// Target is the recommended allocation (nil for ActionNone).
	Target []int
	// TargetKmax is the pool size the decision needs (equals Snapshot.Kmax
	// unless scaling).
	TargetKmax int
	// Estimated is the model's E[T] for Target (or for the current
	// allocation when ActionNone).
	Estimated float64
	// Reason is a human-readable justification, for operator logs.
	Reason string
}

// AllocMap renders the decision's target allocation as an operator-name ->
// processor-count map, the form an engine rebalance takes. names must be
// the topology-ordered operator names the snapshot was built over. It
// returns nil for decisions without a target (ActionNone).
func (d Decision) AllocMap(names []string) (map[string]int, error) {
	if d.Target == nil {
		return nil, nil
	}
	if len(names) != len(d.Target) {
		return nil, fmt.Errorf("%w: %d names for %d targets", ErrDimensionMismatch, len(names), len(d.Target))
	}
	out := make(map[string]int, len(names))
	for i, name := range names {
		out[name] = d.Target[i]
	}
	return out, nil
}

// ControllerConfig tunes the decision logic.
type ControllerConfig struct {
	// Mode picks Program (4) or Program (6).
	Mode Mode
	// Kmax is the processor budget (ModeMinLatency).
	Kmax int
	// Tmax is the real-time constraint in seconds (ModeMinResource).
	Tmax float64
	// MinGain is the minimum relative improvement in estimated E[T] that
	// justifies paying the rebalance cost, e.g. 0.05 for 5%. Guards against
	// churn from measurement noise (Appendix B's cost/benefit test).
	MinGain float64
	// ScaleInSlack is the relative headroom (on top of Tmax) the estimate
	// must keep after releasing resources, e.g. 0.1 keeps E[T] ≤ 0.9·Tmax.
	ScaleInSlack float64
	// MaxScaleInUtilization, when > 0, refuses scale-in targets that push
	// any operator's utilization λ/(kµ) above this cap. The M/M/k estimate
	// is increasingly optimistic near saturation when the real service
	// distribution is heavier-tailed, so shrinking into ρ ≈ 1 invites
	// out/in flapping.
	MaxScaleInUtilization float64
	// SlotsPerMachine is the executor capacity of one machine; used in
	// ModeMinResource to quantize pool changes to whole machines. Zero
	// means processors are provisioned individually.
	SlotsPerMachine int
	// ReservedSlots are slots on the pool not usable for bolts (spouts,
	// the DRS executor itself) — the paper reserves 3 of 25.
	ReservedSlots int
}

// Validate reports configuration errors.
func (c ControllerConfig) Validate() error {
	switch c.Mode {
	case ModeMinLatency:
		if c.Kmax <= 0 {
			return errors.New("core: ModeMinLatency requires Kmax > 0")
		}
	case ModeMinResource:
		if !(c.Tmax > 0) {
			return errors.New("core: ModeMinResource requires Tmax > 0")
		}
	default:
		return fmt.Errorf("core: unknown mode %v", c.Mode)
	}
	if !(c.MinGain >= 0 && c.MinGain < 1) {
		return errors.New("core: MinGain must be in [0, 1)")
	}
	if !(c.ScaleInSlack >= 0 && c.ScaleInSlack < 1) {
		return errors.New("core: ScaleInSlack must be in [0, 1)")
	}
	if !(c.MaxScaleInUtilization >= 0 && c.MaxScaleInUtilization < 1) {
		return errors.New("core: MaxScaleInUtilization must be in [0, 1)")
	}
	if c.SlotsPerMachine < 0 || c.ReservedSlots < 0 {
		return errors.New("core: negative slot counts")
	}
	return nil
}

// Controller implements the DRS decision loop of §III-C/§IV: build a model
// from the latest snapshot, compute the optimal allocation, and decide
// whether acting on it is worth the migration cost. Controller carries no
// decision state between rounds — only its config and reusable scratch
// storage, so the steady-state hold round (the decision a supervisor makes
// every Tm forever) costs zero allocations. Feed it snapshots and apply
// its decisions through whatever actuates your CSP layer. Safe for
// concurrent use.
type Controller struct {
	cfg ControllerConfig

	// mu serializes Step: the scratch below is reused across rounds.
	mu    sync.Mutex
	model Model
	heap  benefitHeap
	kbuf  []int // target-allocation scratch; escapes only via a copy
	nbuf  []int // Program (6) requirement scratch; never escapes
}

// NewController validates the config and returns a controller.
func NewController(cfg ControllerConfig) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg}, nil
}

// Step evaluates one measurement snapshot and returns a decision. It never
// mutates the snapshot and never retains its slices.
func (c *Controller) Step(s Snapshot) (Decision, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.model.Reset(s.Lambda0, s.Ops); err != nil {
		return Decision{}, fmt.Errorf("core: building model from snapshot: %w", err)
	}
	switch c.cfg.Mode {
	case ModeMinLatency:
		return c.stepMinLatency(&c.model, s)
	case ModeMinResource:
		return c.stepMinResource(&c.model, s)
	default:
		return Decision{}, fmt.Errorf("core: unknown mode %v", c.cfg.Mode)
	}
}

// assign solves Algorithm 1 into the controller's scratch storage. The
// result is only valid until the next call; actionable decisions must copy
// it (cloneInts) before it escapes into a Decision.
func (c *Controller) assign(model *Model, kmax int) ([]int, error) {
	k, err := model.assignProcessorsInto(c.kbuf, &c.heap, kmax)
	if k != nil {
		c.kbuf = k
	}
	return k, err
}

// cloneInts copies an allocation vector out of scratch storage.
func cloneInts(xs []int) []int { return append([]int(nil), xs...) }

// stepMinLatency recommends AssignProcessors(Kmax) and rebalances when the
// estimated gain over the current allocation clears MinGain.
func (c *Controller) stepMinLatency(model *Model, s Snapshot) (Decision, error) {
	kmax := s.Kmax
	if kmax == 0 {
		kmax = c.cfg.Kmax
	}
	target, err := c.assign(model, kmax)
	if err != nil {
		return Decision{}, err
	}
	estTarget, err := model.ExpectedSojourn(target)
	if err != nil {
		return Decision{}, err
	}
	if slices.Equal(target, s.Alloc) {
		return Decision{Action: ActionNone, Estimated: estTarget, TargetKmax: kmax,
			Reason: "current allocation already optimal"}, nil
	}
	estCur := math.Inf(1)
	if len(s.Alloc) == model.N() {
		estCur, err = model.ExpectedSojourn(s.Alloc)
		if err != nil {
			return Decision{}, err
		}
	}
	gain := 1 - estTarget/estCur
	if math.IsInf(estCur, 1) {
		gain = 1
	}
	if gain < c.cfg.MinGain {
		return Decision{Action: ActionNone, Estimated: estCur, TargetKmax: kmax,
			Reason: fmt.Sprintf("gain %.1f%% below threshold %.1f%%", gain*100, c.cfg.MinGain*100)}, nil
	}
	return Decision{
		Action:     ActionRebalance,
		Target:     cloneInts(target),
		TargetKmax: kmax,
		Estimated:  estTarget,
		Reason:     fmt.Sprintf("estimated E[T] %.1fms -> %.1fms (gain %.1f%%)", estCur*1e3, estTarget*1e3, gain*100),
	}, nil
}

// stepMinResource implements the Figure-10 behaviour with hysteresis.
// When the measured (or estimated) sojourn violates Tmax, the pool grows to
// whatever Program (6) says Tmax needs. When comfortably within target, the
// pool shrinks only if the *slack-tightened* target Tmax·(1−ScaleInSlack)
// still fits in a smaller pool — the asymmetry prevents out/in flapping
// when the model is optimistic near saturation (it assumes exponential
// service; heavier-tailed reality queues worse).
func (c *Controller) stepMinResource(model *Model, s Snapshot) (Decision, error) {
	if model.Violates(s.Alloc, s.MeasuredSojourn, c.cfg.Tmax) {
		return c.scaleOutOrRebalance(model, s, s.Kmax)
	}
	return c.maybeScaleIn(model, s, s.Kmax)
}

// scaleOutOrRebalance handles a Tmax violation: grow the pool to the
// Program (6) size, or failing that, rebalance within the current pool.
func (c *Controller) scaleOutOrRebalance(model *Model, s Snapshot, curKmax int) (Decision, error) {
	need, err := model.minProcessorsInto(c.nbuf, &c.heap, c.cfg.Tmax)
	if need != nil {
		c.nbuf = need
	}
	if err == nil {
		if targetKmax := c.poolFor(sum(need)); targetKmax > curKmax {
			target, aerr := c.assign(model, targetKmax)
			if aerr != nil {
				return Decision{}, aerr
			}
			est, eerr := model.ExpectedSojourn(target)
			if eerr != nil {
				return Decision{}, eerr
			}
			return Decision{
				Action:     ActionScaleOut,
				Target:     cloneInts(target),
				TargetKmax: targetKmax,
				Estimated:  est,
				Reason:     fmt.Sprintf("%s; growing pool %d -> %d", c.violation(model, s), curKmax, targetKmax),
			}, nil
		}
	} else if !errors.Is(err, ErrUnreachableTarget) {
		return Decision{}, err
	}
	// Tmax unreachable by the model, or the pool is already big enough:
	// the best move left is the pool-optimal allocation.
	target, aerr := c.assign(model, curKmax)
	if aerr != nil {
		return Decision{}, aerr
	}
	est, eerr := model.ExpectedSojourn(target)
	if eerr != nil {
		return Decision{}, eerr
	}
	if slices.Equal(target, s.Alloc) {
		return Decision{Action: ActionNone, Estimated: est, TargetKmax: curKmax,
			Reason: "violating Tmax but already at pool optimum"}, nil
	}
	// Churn guard: near-tie reassignments (est gain below MinGain) cost a
	// pause and help nothing; measurement noise flips them endlessly.
	if len(s.Alloc) == model.N() {
		if estCur, cerr := model.ExpectedSojourn(s.Alloc); cerr == nil && !math.IsInf(estCur, 1) {
			if gain := 1 - est/estCur; gain < c.cfg.MinGain {
				return Decision{Action: ActionNone, Estimated: estCur, TargetKmax: curKmax,
					Reason: fmt.Sprintf("violating Tmax but pool-optimal gain %.1f%% below threshold", gain*100)}, nil
			}
		}
	}
	return Decision{Action: ActionRebalance, Target: cloneInts(target), TargetKmax: curKmax, Estimated: est,
		Reason: "violating Tmax; rebalancing within current pool"}, nil
}

// violation names the check of Model.Violates that fired: the measured
// sojourn when it is above Tmax, else Equation (3)'s estimate for the
// allocation in force, in words when an unstable operator leaves it
// unbounded.
func (c *Controller) violation(model *Model, s Snapshot) string {
	tmax := c.cfg.Tmax * 1e3
	if s.MeasuredSojourn > c.cfg.Tmax {
		return fmt.Sprintf("measured E[T] %.1fms > Tmax %.1fms", s.MeasuredSojourn*1e3, tmax)
	}
	if est, _ := model.ExpectedSojourn(s.Alloc); !math.IsInf(est, 1) {
		return fmt.Sprintf("estimated E[T] %.1fms > Tmax %.1fms", est*1e3, tmax)
	}
	return fmt.Sprintf("estimated E[T] unbounded > Tmax %.1fms", tmax)
}

// maybeScaleIn releases machines only when the tightened target still fits
// in a smaller pool.
func (c *Controller) maybeScaleIn(model *Model, s Snapshot, curKmax int) (Decision, error) {
	// The steady state of a converged deployment is one of these holds,
	// every Tm forever: the reasons are constants, so it allocates nothing.
	hold := func(reason string) Decision {
		est := math.NaN()
		if len(s.Alloc) == model.N() {
			est, _ = model.ExpectedSojourn(s.Alloc)
		}
		return Decision{Action: ActionNone, Estimated: est, TargetKmax: curKmax, Reason: reason}
	}
	need, err := model.minProcessorsInto(c.nbuf, &c.heap, c.cfg.Tmax*(1-c.cfg.ScaleInSlack))
	if need != nil {
		c.nbuf = need
	}
	if err != nil {
		if errors.Is(err, ErrUnreachableTarget) {
			return hold("within Tmax; tightened target unreachable, keeping pool"), nil
		}
		return Decision{}, err
	}
	targetKmax := c.poolFor(sum(need))
	if targetKmax >= curKmax {
		return hold("within target at current pool size"), nil
	}
	target, aerr := c.assign(model, targetKmax)
	if aerr != nil {
		return Decision{}, aerr
	}
	est, eerr := model.ExpectedSojourn(target)
	if eerr != nil {
		return Decision{}, eerr
	}
	if est > c.cfg.Tmax*(1-c.cfg.ScaleInSlack) {
		return hold("smaller pool would not keep enough headroom"), nil
	}
	if cap := c.cfg.MaxScaleInUtilization; cap > 0 {
		for i, op := range model.ops {
			if op.Lambda/(float64(target[i])*op.Mu) > cap {
				return hold("scale-in would push an operator past MaxScaleInUtilization"), nil
			}
		}
	}
	return Decision{
		Action:     ActionScaleIn,
		Target:     cloneInts(target),
		TargetKmax: targetKmax,
		Estimated:  est,
		Reason: fmt.Sprintf("estimated E[T] %.1fms fits Tmax %.1fms with pool %d -> %d",
			est*1e3, c.cfg.Tmax*1e3, curKmax, targetKmax),
	}, nil
}

// poolFor quantizes a processor requirement to the pool size that machines
// provide: whole machines of SlotsPerMachine slots, minus ReservedSlots.
func (c *Controller) poolFor(processors int) int {
	if c.cfg.SlotsPerMachine <= 0 {
		return processors
	}
	machines := (processors + c.cfg.ReservedSlots + c.cfg.SlotsPerMachine - 1) / c.cfg.SlotsPerMachine
	return machines*c.cfg.SlotsPerMachine - c.cfg.ReservedSlots
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
