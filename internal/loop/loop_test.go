package loop

import (
	"bytes"
	"errors"
	"log/slog"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/metrics"
	"github.com/drs-repro/drs/internal/obs"
)

// fakeClock is a manually-stepped Clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(0, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// fakeTarget scripts the supervised system: it serves a fixed interval
// report, tracks the allocation in force, and can be told to fail
// rebalances.
type fakeTarget struct {
	mu           sync.Mutex
	alloc        map[string]int
	rep          metrics.IntervalReport
	rebalanceErr error
	calls        []map[string]int
	pauses       []time.Duration
}

func (t *fakeTarget) DrainInterval() metrics.IntervalReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rep
}

func (t *fakeTarget) Allocation() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int, len(t.alloc))
	for k, v := range t.alloc {
		out[k] = v
	}
	return out
}

func (t *fakeTarget) Rebalance(alloc map[string]int, pause time.Duration) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls = append(t.calls, alloc)
	t.pauses = append(t.pauses, pause)
	if t.rebalanceErr != nil {
		return t.rebalanceErr
	}
	for k, v := range alloc {
		t.alloc[k] = v
	}
	return nil
}

func (t *fakeTarget) rebalances() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.calls)
}

// fakeStepper returns a scripted decision every round.
type fakeStepper struct {
	mu    sync.Mutex
	d     core.Decision
	err   error
	steps int
}

func (f *fakeStepper) Step(core.Snapshot) (core.Decision, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.steps++
	return f.d, f.err
}

// fakeSource is always ready with a scripted snapshot.
type fakeSource struct {
	mu     sync.Mutex
	snap   core.Snapshot
	err    error
	resets int
}

func (s *fakeSource) AddInterval(metrics.IntervalReport) error { return nil }

func (s *fakeSource) Snapshot() (core.Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap, s.err
}

func (s *fakeSource) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resets++
}

// steadyReport builds the interval report of a system running at fixed
// rates: lambda0 external tuples/s, and per operator (arrival rate,
// service rate) pairs.
func steadyReport(dur time.Duration, lambda0 float64, rates [][2]float64) metrics.IntervalReport {
	secs := dur.Seconds()
	rep := metrics.IntervalReport{
		Duration:         dur,
		ExternalArrivals: int64(lambda0 * secs),
		Ops:              make([]metrics.OpInterval, len(rates)),
	}
	for i, r := range rates {
		served := int64(r[0] * secs)
		rep.Ops[i] = metrics.OpInterval{
			Arrivals: served,
			Served:   served,
			Sampled:  served,
			BusyTime: time.Duration(float64(served) / r[1] * float64(time.Second)),
		}
	}
	return rep
}

// TestRebalanceConvergence closes the full production loop: real measurer,
// real controller. The target starts on a lopsided split; the supervisor
// must rebalance it to the model optimum exactly once and then hold.
func TestRebalanceConvergence(t *testing.T) {
	clock := newFakeClock()
	target := &fakeTarget{
		alloc: map[string]int{"extract": 2, "match": 6},
		rep:   steadyReport(10*time.Second, 10, [][2]float64{{10, 5}, {10, 5}}),
	}
	ctrl, err := core.NewController(core.ControllerConfig{Mode: core.ModeMinLatency, Kmax: 8, MinGain: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := New(Config{
		Target:    target,
		Operators: []string{"extract", "match"},
		Stepper:   ctrl,
		Pool:      FixedPool(8),
		Interval:  10 * time.Second,
		Clock:     clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		sup.Tick()
		clock.advance(10 * time.Second)
	}
	hist := sup.History()
	if len(hist) != 1 {
		t.Fatalf("want exactly one event, got %d: %v", len(hist), hist)
	}
	ev := hist[0]
	if ev.Action != core.ActionRebalance || !ev.Applied {
		t.Fatalf("want applied rebalance, got %+v", ev)
	}
	want := []int{4, 4} // symmetric rates: the optimum is the even split
	for i, k := range want {
		if ev.Target[i] != k {
			t.Fatalf("want target %v, got %v", want, ev.Target)
		}
	}
	if got := target.Allocation(); got["extract"] != 4 || got["match"] != 4 {
		t.Fatalf("allocation not applied: %v", got)
	}
	if snap, ok := sup.LastSnapshot(); !ok || snap.Lambda0 == 0 {
		t.Fatalf("missing last snapshot: %v %v", snap, ok)
	}
}

// TestCooldown verifies the hysteresis: after an applied action the
// supervisor only observes until Cooldown has elapsed on its clock.
func TestCooldown(t *testing.T) {
	clock := newFakeClock()
	target := &fakeTarget{alloc: map[string]int{"a": 1}}
	stepper := &fakeStepper{d: core.Decision{
		Action: core.ActionRebalance, Target: []int{2}, TargetKmax: 4, Reason: "scripted",
	}}
	src := &fakeSource{snap: core.Snapshot{
		Lambda0: 1, Ops: []core.OpRates{{Name: "a", Lambda: 1, Mu: 2}},
	}}
	sup, err := New(Config{
		Target:    target,
		Operators: []string{"a"},
		Stepper:   stepper,
		Pool:      FixedPool(4),
		Source:    src,
		Interval:  time.Second,
		Cooldown:  40 * time.Second,
		Clock:     clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Tick() // applies immediately
	if n := target.rebalances(); n != 1 {
		t.Fatalf("want 1 rebalance, got %d", n)
	}
	for i := 0; i < 39; i++ { // every tick inside the cooldown window holds
		clock.advance(time.Second)
		sup.Tick()
	}
	if n := target.rebalances(); n != 1 {
		t.Fatalf("cooldown violated: %d rebalances", n)
	}
	clock.advance(time.Second) // cooldown expires exactly now
	sup.Tick()
	if n := target.rebalances(); n != 2 {
		t.Fatalf("want rebalance after cooldown, got %d", n)
	}
	if src.resets != 2 {
		t.Fatalf("want a measurer reset per applied action, got %d", src.resets)
	}
}

// TestIdleRoundHolds: a round whose measurement holds no arrivals (λ̂0 = 0,
// an idle front door) has no model to judge it by; it is recorded and held
// without a warning, and nothing is actuated.
func TestIdleRoundHolds(t *testing.T) {
	clock := newFakeClock()
	target := &fakeTarget{alloc: map[string]int{"a": 1}}
	ctrl, err := core.NewController(core.ControllerConfig{Mode: core.ModeMinResource, Tmax: 1})
	if err != nil {
		t.Fatal(err)
	}
	var warnings bytes.Buffer
	sup, err := New(Config{
		Target:    target,
		Operators: []string{"a"},
		Stepper:   ctrl,
		Pool:      FixedPool(4),
		Source:    &fakeSource{snap: core.Snapshot{Ops: []core.OpRates{{Name: "a", Mu: 2}}}},
		Interval:  time.Second,
		Clock:     clock.Now,
		Logger:    slog.New(slog.NewTextHandler(&warnings, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sup.Tick()
		clock.advance(time.Second)
	}
	if warnings.Len() != 0 {
		t.Errorf("idle rounds logged warnings:\n%s", warnings.String())
	}
	if _, measured := sup.LastSnapshot(); !measured || sup.Rounds() != 3 || target.rebalances() != 0 {
		t.Errorf("measured %v, %d rounds, %d rebalances: want 3 recorded rounds and no action",
			measured, sup.Rounds(), target.rebalances())
	}
}

// errRebalanceRefused stands in for a target's failed Rebalance.
var errRebalanceRefused = errors.New("test: rebalance refused")

// TestFailureSuppression drives repeated Rebalance failures: after
// failureThreshold of them the supervisor must stop trying that action
// kind until the failure window (ten cooldowns) expires, then probe again.
func TestFailureSuppression(t *testing.T) {
	clock := newFakeClock()
	target := &fakeTarget{
		alloc:        map[string]int{"a": 1},
		rebalanceErr: errRebalanceRefused,
	}
	stepper := &fakeStepper{d: core.Decision{
		Action: core.ActionRebalance, Target: []int{2}, TargetKmax: 4, Reason: "scripted",
	}}
	src := &fakeSource{snap: core.Snapshot{
		Lambda0: 1, Ops: []core.OpRates{{Name: "a", Lambda: 1, Mu: 2}},
	}}
	sup, err := New(Config{
		Target:    target,
		Operators: []string{"a"},
		Stepper:   stepper,
		Pool:      FixedPool(4),
		Source:    src,
		Interval:  time.Second,
		Cooldown:  time.Second,
		Clock:     clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sup.Tick()
		clock.advance(time.Second)
	}
	if n := target.rebalances(); n != failureThreshold {
		t.Fatalf("want exactly failureThreshold=%d attempts, got %d", failureThreshold, n)
	}
	var failed, suppressed int
	for _, ev := range sup.History() {
		switch {
		case ev.Suppressed:
			suppressed++
		case ev.Err != nil:
			if !errors.Is(ev.Err, errRebalanceRefused) {
				t.Fatalf("unexpected event error: %v", ev.Err)
			}
			failed++
		}
	}
	if failed != 3 || suppressed != 1 {
		t.Fatalf("want 3 failures and one suppression-episode event, got %d/%d", failed, suppressed)
	}
	// Past the window the tracker forgets and the supervisor probes again.
	clock.advance(2 * time.Minute)
	sup.Tick()
	if n := target.rebalances(); n != 4 {
		t.Fatalf("want a fresh attempt after the window, got %d attempts", n)
	}
}

// memSink is an obs.Sink that keeps the drained NDJSON in memory.
type memSink struct{ ndjson []byte }

func (m *memSink) Write(batch []byte) { m.ndjson = append(m.ndjson, batch...) }
func (m *memSink) Close() error       { return nil }

// TestScaleOutChargesPool verifies scale decisions negotiate the pool and
// that a failed apply rolls the machines back — and that both reach the
// decision log as the executor total before -> the event's target total.
func TestScaleOutChargesPool(t *testing.T) {
	clock := newFakeClock()
	sink := &memSink{}
	dlog := obs.NewLog(obs.Config{Sink: sink, Now: clock.Now})
	pool, err := cluster.PaperPool(4) // Kmax 17
	if err != nil {
		t.Fatal(err)
	}
	target := &fakeTarget{alloc: map[string]int{"a": 17}}
	stepper := &fakeStepper{d: core.Decision{
		Action: core.ActionScaleOut, Target: []int{22}, TargetKmax: 22, Reason: "scripted",
	}}
	src := &fakeSource{snap: core.Snapshot{
		Lambda0: 1, Ops: []core.OpRates{{Name: "a", Lambda: 1, Mu: 2}},
	}}
	cfg := Config{
		Target:    target,
		Operators: []string{"a"},
		Stepper:   stepper,
		Pool:      pool,
		Source:    src,
		Interval:  time.Second,
		Cooldown:  time.Second,
		Clock:     clock.Now,

		DecisionLog: dlog,
	}
	sup, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sup.Tick()
	if pool.Machines() != 5 || pool.Kmax() != 22 {
		t.Fatalf("pool not grown: %d machines, Kmax %d", pool.Machines(), pool.Kmax())
	}
	hist := sup.History()
	if len(hist) != 1 || !hist[0].Applied || hist[0].Pause <= 0 {
		t.Fatalf("want applied scale-out with modeled pause, got %+v", hist)
	}

	// Same decision, but the target refuses: the pool must end unchanged.
	pool2, err := cluster.PaperPool(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pool = pool2
	cfg.Target = &fakeTarget{alloc: map[string]int{"a": 17}, rebalanceErr: errRebalanceRefused}
	sup2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sup2.Tick()
	if pool2.Machines() != 4 {
		t.Fatalf("pool not rolled back after failed apply: %d machines", pool2.Machines())
	}
	hist = sup2.History()
	if len(hist) != 1 || hist[0].Applied || hist[0].Err == nil {
		t.Fatalf("want failed event, got %+v", hist)
	}

	// The applied record's From is the total in force before the apply,
	// not the total it just put in force.
	if err := dlog.Close(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(sink.ndjson), []byte("\n"))
	want := []obs.Kind{obs.KindRefit, obs.KindRefitFailed}
	if len(lines) != len(want) {
		t.Fatalf("decision log holds %d records, want %d:\n%s", len(lines), len(want), sink.ndjson)
	}
	for i, line := range lines {
		rec, err := obs.ParseRecord(line)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind != want[i] || rec.From != 17 || rec.To != 22 || rec.Detail != "scripted" {
			t.Errorf("record %d = %s, want kind %v from 17 to 22 with the controller's reason", i, line, want[i])
		}
	}
}

// slowRebalanceTarget simulates a live rebalance that takes real time by
// advancing the clock during the apply.
type slowRebalanceTarget struct {
	fakeTarget
	clock *fakeClock
	took  time.Duration
}

func (t *slowRebalanceTarget) Rebalance(alloc map[string]int, pause time.Duration) error {
	t.clock.advance(t.took)
	return t.fakeTarget.Rebalance(alloc, pause)
}

// TestCooldownAnchoredAfterApply guards against a slow (here also failing)
// apply consuming its own cooldown: the hold must start when the apply
// finishes, not when the round began.
func TestCooldownAnchoredAfterApply(t *testing.T) {
	clock := newFakeClock()
	target := &slowRebalanceTarget{
		fakeTarget: fakeTarget{alloc: map[string]int{"a": 1}, rebalanceErr: errRebalanceRefused},
		clock:      clock,
		took:       20 * time.Second, // the apply takes far longer than the cooldown
	}
	stepper := &fakeStepper{d: core.Decision{
		Action: core.ActionRebalance, Target: []int{2}, TargetKmax: 4, Reason: "scripted",
	}}
	src := &fakeSource{snap: core.Snapshot{
		Lambda0: 1, Ops: []core.OpRates{{Name: "a", Lambda: 1, Mu: 2}},
	}}
	sup, err := New(Config{
		Target:    target,
		Operators: []string{"a"},
		Stepper:   stepper,
		Pool:      FixedPool(4),
		Source:    src,
		Interval:  time.Second,
		Cooldown:  4 * time.Second,
		Clock:     clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Tick() // fails after 20 simulated seconds
	if n := target.rebalances(); n != 1 {
		t.Fatalf("want 1 attempt, got %d", n)
	}
	for i := 0; i < 3; i++ { // the next ticks land inside the post-apply cooldown
		clock.advance(time.Second)
		sup.Tick()
	}
	if n := target.rebalances(); n != 1 {
		t.Fatalf("failed apply consumed its own cooldown: %d attempts", n)
	}
	clock.advance(2 * time.Second) // cooldown over: retry is allowed again
	sup.Tick()
	if n := target.rebalances(); n != 2 {
		t.Fatalf("want retry after post-apply cooldown, got %d attempts", n)
	}
}

// TestHistoryCap verifies the event log stays bounded on a long-lived
// supervisor that keeps acting.
func TestHistoryCap(t *testing.T) {
	clock := newFakeClock()
	target := &fakeTarget{alloc: map[string]int{"a": 1}}
	stepper := &fakeStepper{d: core.Decision{
		Action: core.ActionRebalance, Target: []int{2}, TargetKmax: 4, Reason: "scripted",
	}}
	src := &fakeSource{snap: core.Snapshot{
		Lambda0: 1, Ops: []core.OpRates{{Name: "a", Lambda: 1, Mu: 2}},
	}}
	sup, err := New(Config{
		Target:    target,
		Operators: []string{"a"},
		Stepper:   stepper,
		Pool:      FixedPool(4),
		Source:    src,
		Interval:  time.Second,
		Cooldown:  time.Second,
		Clock:     clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxHistory+50; i++ {
		sup.Tick()
		clock.advance(time.Second)
	}
	if n := len(sup.History()); n != maxHistory {
		t.Fatalf("history not capped: %d events", n)
	}
}

// TestNoCapacityHolds verifies a provider capacity refusal is a plain
// hold: no cooldown, no failure tracking, no event — the loop re-evaluates
// every round, exactly as when the pool simply has nothing more to give.
func TestNoCapacityHolds(t *testing.T) {
	clock := newFakeClock()
	pool, err := cluster.PaperPool(5) // at the provider cap already
	if err != nil {
		t.Fatal(err)
	}
	target := &fakeTarget{alloc: map[string]int{"a": 22}}
	stepper := &fakeStepper{d: core.Decision{
		Action: core.ActionScaleOut, Target: []int{40}, TargetKmax: 40, Reason: "scripted",
	}}
	src := &fakeSource{snap: core.Snapshot{
		Lambda0: 1, Ops: []core.OpRates{{Name: "a", Lambda: 1, Mu: 2}},
	}}
	sup, err := New(Config{
		Target:    target,
		Operators: []string{"a"},
		Stepper:   stepper,
		Pool:      pool,
		Source:    src,
		Interval:  time.Second,
		Cooldown:  40 * time.Second,
		Clock:     clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sup.Tick()
		clock.advance(time.Second)
	}
	if stepper.steps != 10 {
		t.Fatalf("capacity refusals must not start cooldowns: %d of 10 rounds decided", stepper.steps)
	}
	if n := len(sup.History()); n != 0 {
		t.Fatalf("capacity refusals must not be recorded: %d events", n)
	}
	if n := target.rebalances(); n != 0 {
		t.Fatalf("no allocation should be applied: %d rebalances", n)
	}
}

// TestWarmupHolds verifies ErrNotReady/ErrIncomplete snapshots hold
// silently instead of stepping the controller.
func TestWarmupHolds(t *testing.T) {
	clock := newFakeClock()
	target := &fakeTarget{alloc: map[string]int{"a": 1}}
	stepper := &fakeStepper{}
	src := &fakeSource{err: metrics.ErrNotReady}
	sup, err := New(Config{
		Target:    target,
		Operators: []string{"a"},
		Stepper:   stepper,
		Pool:      FixedPool(4),
		Source:    src,
		Interval:  time.Second,
		Clock:     clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Tick()
	src.mu.Lock()
	src.err = metrics.ErrIncomplete
	src.mu.Unlock()
	sup.Tick()
	if stepper.steps != 0 {
		t.Fatalf("stepper consulted during warmup: %d steps", stepper.steps)
	}
	if len(sup.History()) != 0 {
		t.Fatalf("warmup holds must not be recorded: %v", sup.History())
	}
}

// fakeArbiterPool scripts a multi-tenant lease: Resize grants at most
// grantCap slots, the budget can be dropped out from under the supervisor
// (preemption), and utility reports are captured.
type fakeArbiterPool struct {
	mu       sync.Mutex
	kmax     int
	grantCap int
	reports  []cluster.TenantReport
}

func (p *fakeArbiterPool) Kmax() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.kmax
}

func (p *fakeArbiterPool) setKmax(k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.kmax = k
}

func (p *fakeArbiterPool) Rebalance() cluster.Transition {
	return cluster.Transition{Kind: "rebalance", Pause: time.Second}
}

func (p *fakeArbiterPool) Resize(target int) (cluster.Transition, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	grant := target
	if grant > p.grantCap {
		grant = p.grantCap
	}
	old := p.kmax
	p.kmax = grant
	kind := "rebalance"
	switch {
	case grant > old:
		kind = "scale-out"
	case grant < old:
		kind = "scale-in"
	}
	return cluster.Transition{Kind: kind, Pause: time.Second}, nil
}

func (p *fakeArbiterPool) Report(r cluster.TenantReport) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reports = append(p.reports, r)
}

func (p *fakeArbiterPool) lastReport() (cluster.TenantReport, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.reports) == 0 {
		return cluster.TenantReport{}, false
	}
	return p.reports[len(p.reports)-1], true
}

// TestPreemptedGrantShrinksGracefully drops the lease's budget below the
// allocation in force and checks the supervisor vacates the lost slots on
// its next tick — even inside a cooldown — re-fitting the allocation to
// the model optimum for the smaller budget.
func TestPreemptedGrantShrinksGracefully(t *testing.T) {
	clock := newFakeClock()
	target := &fakeTarget{alloc: map[string]int{"a": 4, "b": 4}}
	pool := &fakeArbiterPool{kmax: 8, grantCap: 8}
	src := &fakeSource{snap: core.Snapshot{
		Lambda0: 2, Ops: []core.OpRates{{Name: "a", Lambda: 1, Mu: 2}, {Name: "b", Lambda: 1, Mu: 2}},
	}}
	sup, err := New(Config{
		Target:    target,
		Operators: []string{"a", "b"},
		Stepper:   &fakeStepper{}, // always holds; only preemption acts
		Pool:      pool,
		Source:    src,
		Interval:  time.Second,
		Cooldown:  100 * time.Second,
		Clock:     clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Tick() // stores the snapshot; budget still covers the allocation
	if n := target.rebalances(); n != 0 {
		t.Fatalf("no shrink expected yet, got %d rebalances", n)
	}
	pool.setKmax(4) // the arbiter preempts half the grant
	clock.advance(time.Second)
	sup.Tick()
	got := target.Allocation()
	if got["a"]+got["b"] != 4 {
		t.Fatalf("allocation not vacated to the grant: %v", got)
	}
	if got["a"] != 2 || got["b"] != 2 {
		t.Fatalf("shrunk allocation not model-optimal: %v, want a=2 b=2", got)
	}
	hist := sup.History()
	if len(hist) != 1 || !hist[0].Preempted || !hist[0].Applied {
		t.Fatalf("want one applied preemption event, got %+v", hist)
	}
	if src.resets != 1 {
		t.Fatalf("measurer not reset after forced shrink: %d resets", src.resets)
	}
	// A second preemption during the fresh cooldown must still be served.
	pool.setKmax(3)
	clock.advance(time.Second)
	sup.Tick()
	got = target.Allocation()
	if got["a"]+got["b"] != 3 {
		t.Fatalf("cooldown blocked a preemption shrink: %v", got)
	}
}

// TestPartialGrantRefit asks for more slots than the arbiter will give and
// checks the supervisor re-solves its allocation for the granted budget
// instead of applying the oversized one.
func TestPartialGrantRefit(t *testing.T) {
	clock := newFakeClock()
	target := &fakeTarget{alloc: map[string]int{"a": 2, "b": 2}}
	pool := &fakeArbiterPool{kmax: 4, grantCap: 6}
	stepper := &fakeStepper{d: core.Decision{
		Action: core.ActionScaleOut, Target: []int{6, 6}, TargetKmax: 12, Reason: "scripted",
	}}
	src := &fakeSource{snap: core.Snapshot{
		Lambda0: 2, Ops: []core.OpRates{{Name: "a", Lambda: 1, Mu: 2}, {Name: "b", Lambda: 1, Mu: 2}},
	}}
	sup, err := New(Config{
		Target:    target,
		Operators: []string{"a", "b"},
		Stepper:   stepper,
		Pool:      pool,
		Source:    src,
		Interval:  time.Second,
		Cooldown:  time.Second,
		Clock:     clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Tick()
	got := target.Allocation()
	if got["a"] != 3 || got["b"] != 3 {
		t.Fatalf("partial grant not re-fit: %v, want a=3 b=3 (6 granted of 12 asked)", got)
	}
	hist := sup.History()
	if len(hist) != 1 || !hist[0].Applied || hist[0].Kmax != 6 {
		t.Fatalf("want one applied event at the granted Kmax 6, got %+v", hist)
	}
}

// TestShrinkHoldsAtPhysicalFloor drops the grant below one slot per
// operator: the supervisor cannot vacate below the physical floor, so it
// must hold — not re-apply an identical over-budget allocation (and pay
// its pause) every tick.
func TestShrinkHoldsAtPhysicalFloor(t *testing.T) {
	clock := newFakeClock()
	target := &fakeTarget{alloc: map[string]int{"a": 1, "b": 1, "c": 1}}
	pool := &fakeArbiterPool{kmax: 3, grantCap: 3}
	src := &fakeSource{snap: core.Snapshot{
		Lambda0: 3, Ops: []core.OpRates{
			{Name: "a", Lambda: 1, Mu: 2}, {Name: "b", Lambda: 1, Mu: 2}, {Name: "c", Lambda: 1, Mu: 2},
		},
	}}
	sup, err := New(Config{
		Target:    target,
		Operators: []string{"a", "b", "c"},
		Stepper:   &fakeStepper{},
		Pool:      pool,
		Source:    src,
		Interval:  time.Second,
		Clock:     clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Tick()
	pool.setKmax(2) // below the 3-operator physical floor
	for i := 0; i < 5; i++ {
		clock.advance(time.Second)
		sup.Tick()
	}
	if n := target.rebalances(); n != 0 {
		t.Fatalf("supervisor churned %d rebalances against an unreachable budget", n)
	}
	if n := len(sup.History()); n != 0 {
		t.Fatalf("unreachable budget recorded %d events", n)
	}
}

// TestFailedApplyRollsBackLeaseGrant verifies the rollback fires on budget
// change alone: an arbitrated lease can grow its grant without any machine
// change, and a failed apply must hand those slots back rather than hoard
// them from the other tenants.
func TestFailedApplyRollsBackLeaseGrant(t *testing.T) {
	clock := newFakeClock()
	target := &fakeTarget{alloc: map[string]int{"a": 2, "b": 2}, rebalanceErr: errRebalanceRefused}
	pool := &fakeArbiterPool{kmax: 4, grantCap: 12}
	stepper := &fakeStepper{d: core.Decision{
		Action: core.ActionScaleOut, Target: []int{6, 6}, TargetKmax: 12, Reason: "scripted",
	}}
	src := &fakeSource{snap: core.Snapshot{
		Lambda0: 2, Ops: []core.OpRates{{Name: "a", Lambda: 1, Mu: 2}, {Name: "b", Lambda: 1, Mu: 2}},
	}}
	sup, err := New(Config{
		Target:    target,
		Operators: []string{"a", "b"},
		Stepper:   stepper,
		Pool:      pool,
		Source:    src,
		Interval:  time.Second,
		Cooldown:  time.Second,
		Clock:     clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Tick()
	if got := pool.Kmax(); got != 4 {
		t.Fatalf("failed apply left the lease holding %d slots, want the original 4", got)
	}
	hist := sup.History()
	if len(hist) != 1 || hist[0].Applied || hist[0].Err == nil {
		t.Fatalf("want one failed event, got %+v", hist)
	}
}

// TestTenantReportPushed verifies the supervisor feeds the arbiter its
// utility self-assessment each decision round, with the violation flag
// derived from the controller's Tmax.
func TestTenantReportPushed(t *testing.T) {
	clock := newFakeClock()
	target := &fakeTarget{alloc: map[string]int{"a": 2, "b": 2}}
	pool := &fakeArbiterPool{kmax: 4, grantCap: 64}
	ctrl, err := core.NewController(core.ControllerConfig{Mode: core.ModeMinResource, Tmax: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	src := &fakeSource{snap: core.Snapshot{
		Lambda0: 2, MeasuredSojourn: 1.0, // twice the 500 ms target
		Ops: []core.OpRates{{Name: "a", Lambda: 1, Mu: 2}, {Name: "b", Lambda: 1, Mu: 2}},
	}}
	sup, err := New(Config{
		Target:    target,
		Operators: []string{"a", "b"},
		Stepper:   ctrl,
		Pool:      pool,
		Source:    src,
		Interval:  time.Second,
		Cooldown:  time.Second,
		Clock:     clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Tick()
	rep, ok := pool.lastReport()
	if !ok {
		t.Fatal("no tenant report pushed")
	}
	if !rep.Violating {
		t.Fatalf("measured 1.0s over Tmax 0.5s must report violating: %+v", rep)
	}
	if rep.Lambda0 != 2 || rep.GrowBenefit <= 0 || rep.ShrinkCost <= 0 {
		t.Fatalf("report fields not populated: %+v", rep)
	}
}

// slowSpout emits tuples at a fixed rate until stopped.
type slowSpout struct{ every time.Duration }

func (s *slowSpout) Run(ctx engine.SpoutContext) error {
	tick := time.NewTicker(s.every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
			ctx.Emit(engine.Values{1})
		}
	}
}

// TestLiveEngine exercises the wall-clock path end to end: a real engine
// run supervised by Start/Stop with a real controller and measurer.
func TestLiveEngine(t *testing.T) {
	topo, err := engine.NewTopology().
		Spout("src", 1, func(int) engine.Spout { return &slowSpout{every: 2 * time.Millisecond} }).
		Bolt("work", 8, func(int) engine.Bolt {
			return engine.BoltFunc(func(engine.Tuple, engine.Emit) error {
				time.Sleep(500 * time.Microsecond) // workload: modelled service
				return nil
			})
		}).
		Shuffle("src", "work").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := topo.Start(engine.RunConfig{Alloc: map[string]int{"work": 1}, QuiesceTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Stop()
	ctrl, err := core.NewController(core.ControllerConfig{Mode: core.ModeMinLatency, Kmax: 4})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := New(Config{
		Target:    EngineTarget(run),
		Operators: run.BoltNames(),
		Stepper:   ctrl,
		Pool:      FixedPool(4),
		Interval:  20 * time.Millisecond,
		Cooldown:  40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); !errors.Is(err, ErrRunning) {
		t.Fatalf("want ErrRunning on double start, got %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); sup.Rounds() < 10 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	sup.Stop()
	sup.Stop() // idempotent
	if sup.Rounds() < 10 {
		t.Fatalf("supervisor barely ran: %d rounds", sup.Rounds())
	}
	if _, ok := sup.LastSnapshot(); !ok {
		t.Fatal("no snapshot observed from live engine")
	}
}

// TestResumeFromPersistedState: a supervisor seeded from a prior life's
// checkpoint continues the round count and re-imposes the captured
// cooldown, so a crash-restart cannot immediately flap; once the carried
// cooldown elapses, decisions flow normally.
func TestResumeFromPersistedState(t *testing.T) {
	clock := newFakeClock()
	target := &fakeTarget{alloc: map[string]int{"a": 1}}
	stepper := &fakeStepper{d: core.Decision{
		Action: core.ActionRebalance, Target: []int{2}, TargetKmax: 4, Reason: "scripted",
	}}
	sup, err := New(Config{
		Target:    target,
		Operators: []string{"a"},
		Stepper:   stepper,
		Pool:      FixedPool(4),
		Source:    &fakeSource{snap: core.Snapshot{Lambda0: 1, Ops: []core.OpRates{{Lambda: 1, Mu: 10}}, Alloc: []int{1}, Kmax: 4}},
		Interval:  10 * time.Second,
		Cooldown:  40 * time.Second,
		Clock:     clock.Now,
		Resume: &PersistedState{
			Rounds: 42,
			// Deliberately above Cooldown: the seed must be capped at it.
			CooldownRemaining: time.Hour,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sup.Rounds(); got != 42 {
		t.Fatalf("resumed Rounds() = %d, want 42", got)
	}
	// Within the carried cooldown: observe-only.
	sup.Tick()
	if n := target.rebalances(); n != 0 {
		t.Fatalf("tick inside carried cooldown applied %d rebalances", n)
	}
	// Past the (capped) cooldown: the decision applies.
	clock.advance(41 * time.Second)
	sup.Tick()
	if n := target.rebalances(); n != 1 {
		t.Fatalf("tick after carried cooldown applied %d rebalances, want 1", n)
	}
	if got := sup.Rounds(); got != 44 {
		t.Fatalf("Rounds() after two ticks = %d, want 44", got)
	}
	// Roundtrip: the freshly applied action started a new cooldown, which
	// the next capture must carry.
	st := sup.PersistedState()
	if st.Rounds != 44 || st.CooldownRemaining <= 0 || st.CooldownRemaining > 40*time.Second {
		t.Fatalf("PersistedState = %+v, want rounds 44 and a live cooldown <= 40s", st)
	}
}
