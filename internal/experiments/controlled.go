package experiments

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/loop"
	"github.com/drs-repro/drs/internal/metrics"
	"github.com/drs-repro/drs/internal/sim"
)

// Transition records one applied controller decision during a run.
type Transition struct {
	// AtSeconds is the simulated time of the action.
	AtSeconds float64
	// Action is the controller's verdict.
	Action core.Action
	// Alloc is the allocation put in force.
	Alloc []int
	// Kmax is the pool size after the action.
	Kmax int
	// PauseSeconds is the modeled service disruption.
	PauseSeconds float64
	// Preempted marks a forced shrink: the cluster arbiter moved this
	// tenant's slots to another topology (multi-tenant runs only).
	Preempted bool
	// SlotsLost marks a failover shrink: machine failure took the slots
	// and the supervisor re-fit to the surviving grant (churn runs only).
	SlotsLost bool
	// Reason is the controller's justification.
	Reason string
}

// transitionsFrom extracts the applied decisions of a supervised run.
func transitionsFrom(sup *loop.Supervisor) []Transition {
	var transitions []Transition
	for _, ev := range sup.History() {
		if !ev.Applied {
			continue
		}
		transitions = append(transitions, Transition{
			AtSeconds:    ev.At.Sub(simEpoch).Seconds(),
			Action:       ev.Action,
			Alloc:        append([]int(nil), ev.Target...),
			Kmax:         ev.Kmax,
			PauseSeconds: ev.Pause.Seconds(),
			Preempted:    ev.Preempted,
			SlotsLost:    ev.SlotsLost,
			Reason:       ev.Reason,
		})
	}
	return transitions
}

// runSpec is one controller-in-the-loop simulation as data.
type runSpec struct {
	profile appProfile
	initial []int
	// machines sizes the paper's cluster pool at the start.
	machines int
	ctrl     core.ControllerConfig
	// stepper overrides the DRS controller (baseline comparisons); when
	// nil, the DRS controller built from ctrl decides.
	stepper core.Stepper
	// seedOffset separates the runs of one figure.
	seedOffset uint64
}

// Run is the supervised single-tenant runner's result.
type Run struct {
	// Initial is the allocation the run started from.
	Initial []int
	// Series is the per-minute mean sojourn curve, as plotted in the paper.
	Series []sim.SeriesPoint
	// Transitions are the re-scheduling events the supervisor applied.
	Transitions []Transition
	// FinalAlloc is the allocation in force at the end of the run.
	FinalAlloc []int
	// InitialMachines/FinalMachines and the Kmax's bracket the pool.
	InitialMachines, FinalMachines int
	InitialKmax, FinalKmax         int
}

// window returns the buckets of a per-minute series whose start lies in
// [from, until).
func window(series []sim.SeriesPoint, from, until float64) []sim.SeriesPoint {
	var out []sim.SeriesPoint
	for _, pt := range series {
		if pt.Start >= from && pt.Start < until {
			out = append(out, pt)
		}
	}
	return out
}

// meanSojourn averages the buckets that saw completions, in seconds; NaN
// when none did.
func meanSojourn(series []sim.SeriesPoint) float64 {
	sum, n := 0.0, 0
	for _, pt := range series {
		if !math.IsNaN(pt.MeanSojourn) {
			sum += pt.MeanSojourn
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// simEpoch anchors the virtual clock: simulated second t maps to
// simEpoch + t on the supervisor's clock.
var simEpoch = time.Unix(0, 0).UTC()

// simClock adapts simulated seconds to the supervisor's and scheduler's
// Clock (its Now method value).
type simClock struct {
	mu  sync.Mutex
	sec float64
}

func (c *simClock) set(sec float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sec = sec
}

func (c *simClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return simEpoch.Add(secondsToDuration(c.sec))
}

// simTarget adapts the discrete-event simulator to the supervisor's Target:
// the same loop that drives the goroutine engine live drives the simulator
// in virtual time, with the cluster-modeled pause injected on rebalance.
type simTarget struct {
	s     *sim.Sim
	names []string
}

func (t simTarget) DrainInterval() metrics.IntervalReport { return t.s.DrainInterval() }

func (t simTarget) Allocation() map[string]int {
	k := t.s.Allocation()
	out := make(map[string]int, len(t.names))
	for i, name := range t.names {
		out[name] = k[i]
	}
	return out
}

func (t simTarget) Rebalance(alloc map[string]int, pause time.Duration) error {
	k := make([]int, len(t.names))
	for i, name := range t.names {
		k[i] = alloc[name]
	}
	return t.s.SetAllocation(k, pause.Seconds())
}

// loopFailures is a slog.Handler that captures the supervisor's first
// warning as an error. A live daemon degrades to holding on errors; an
// experiment must fail loudly instead of silently producing wrong figures,
// matching the old inline loop's fatal-error behavior. (Capacity refusals
// never reach Warn: the supervisor treats ErrNoCapacity as a plain hold.)
type loopFailures struct {
	mu    sync.Mutex
	first error
}

func (c *loopFailures) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.first
}

func (c *loopFailures) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelWarn }
func (c *loopFailures) WithAttrs([]slog.Attr) slog.Handler           { return c }
func (c *loopFailures) WithGroup(string) slog.Handler                { return c }

func (c *loopFailures) Handle(_ context.Context, r slog.Record) error {
	var cause error
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "err" {
			if e, ok := a.Value.Any().(error); ok {
				cause = e
			}
			return false
		}
		return true
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.first == nil {
		if cause != nil {
			c.first = fmt.Errorf("%s: %w", r.Message, cause)
		} else {
			c.first = errors.New(r.Message)
		}
	}
	return nil
}

// runControlled simulates the application with DRS attached: the
// production supervisor (internal/loop) owns the simulator as its target,
// polling the measurer every interval and applying decisions with their
// cluster-modeled pauses — the Figures 9 and 10 machinery, on the same
// loop the live engine uses. The controller only measures before
// tl.enableAt.
func runControlled(c runSpec, tl timeline, o Options) (Run, error) {
	run := Run{Initial: c.initial, InitialMachines: c.machines}
	pool, err := cluster.PaperPool(c.machines)
	if err != nil {
		return run, err
	}
	run.InitialKmax = pool.Kmax()
	cfg, err := c.profile.simConfig(c.initial, o.seed()+c.seedOffset)
	if err != nil {
		return run, err
	}
	s, err := sim.New(cfg)
	if err != nil {
		return run, err
	}
	s.EnableSeries(60)
	stepper := c.stepper
	if stepper == nil {
		if stepper, err = core.NewController(c.ctrl); err != nil {
			return run, err
		}
	}
	clock := &simClock{}
	failures := &loopFailures{}
	sup, err := loop.New(loop.Config{
		Target:    simTarget{s: s, names: c.profile.names},
		Operators: c.profile.names,
		Stepper:   stepper,
		Pool:      pool,
		Interval:  secondsToDuration(controlInterval),
		Cooldown:  secondsToDuration(4 * controlInterval),
		Clock:     clock.Now,
		Logger:    slog.New(failures),
	})
	if err != nil {
		return run, err
	}
	for t := controlInterval; t <= tl.horizon+1e-9; t += controlInterval {
		s.RunUntil(t)
		clock.set(t)
		if t < tl.enableAt {
			sup.Observe() // measure, but leave the controller disabled
			continue
		}
		sup.Tick()
	}
	if err := failures.err(); err != nil {
		return run, fmt.Errorf("experiments: supervised run: %w", err)
	}
	run.Series, run.Transitions, run.FinalAlloc = s.Series(), transitionsFrom(sup), s.Allocation()
	run.FinalMachines, run.FinalKmax = pool.Machines(), pool.Kmax()
	return run, nil
}
