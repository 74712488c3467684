package experiments

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"github.com/drs-repro/drs/internal/metrics"
	"github.com/drs-repro/drs/internal/sim"
)

// virtual.go adapts the supervisor to virtual time: the simulator as its
// target, the simulated clock and the capture of its first failure.

// simEpoch anchors the virtual clock: simulated second t maps to
// simEpoch + t on the supervisor's clock.
var simEpoch = time.Unix(0, 0).UTC()

// simSeconds is the simulated second a virtual-clock time stands for.
func simSeconds(at time.Time) float64 { return at.Sub(simEpoch).Seconds() }

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
