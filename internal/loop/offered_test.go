package loop

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
)

// capturingStepper records every snapshot it is stepped with.
type capturingStepper struct {
	mu    sync.Mutex
	snaps []core.Snapshot
}

func (c *capturingStepper) Step(s core.Snapshot) (core.Decision, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snaps = append(c.snaps, s)
	return core.Decision{Action: core.ActionNone}, nil
}

func (c *capturingStepper) last() (core.Snapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.snaps) == 0 {
		return core.Snapshot{}, false
	}
	return c.snaps[len(c.snaps)-1], true
}

// reportingPool is a FixedPool that also captures tenant reports.
type reportingPool struct {
	Pool
	mu      sync.Mutex
	reports []cluster.TenantReport
}

func (p *reportingPool) Report(r cluster.TenantReport) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reports = append(p.reports, r)
}

// TestScaleOnOfferedLoad: when the snapshot's offered rate exceeds the
// admitted λ̂0 (an ingest tier is shedding), the supervisor must inflate
// the whole snapshot to offered demand before stepping — λ̂0 and every
// per-operator λ̂_i — and report the shed fraction (plus a forced
// Violating) to an arbitrated lease.
func TestScaleOnOfferedLoad(t *testing.T) {
	clock := newFakeClock()
	target := &fakeTarget{alloc: map[string]int{"extract": 2, "match": 2}}
	stepper := &capturingStepper{}
	pool := &reportingPool{Pool: FixedPool(4)}
	src := &fakeSource{snap: core.Snapshot{
		Lambda0:        10,
		OfferedLambda0: 25,
		Ops: []core.OpRates{
			{Name: "extract", Lambda: 10, Mu: 30},
			{Name: "match", Lambda: 20, Mu: 40},
		},
		MeasuredSojourn: 0.05,
	}}
	sup, err := New(Config{
		Target:    target,
		Operators: []string{"extract", "match"},
		Stepper:   stepper,
		Pool:      pool,
		Source:    src,
		Interval:  time.Second,
		Clock:     clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Tick()
	snap, ok := stepper.last()
	if !ok {
		t.Fatal("stepper never ran")
	}
	if math.Abs(snap.Lambda0-25) > 1e-9 {
		t.Fatalf("stepper saw lambda0 %.2f, want offered 25", snap.Lambda0)
	}
	if math.Abs(snap.Ops[0].Lambda-25) > 1e-9 || math.Abs(snap.Ops[1].Lambda-50) > 1e-9 {
		t.Fatalf("per-operator rates not demand-scaled: got %.2f/%.2f, want 25/50",
			snap.Ops[0].Lambda, snap.Ops[1].Lambda)
	}
	if snap.Ops[0].Mu != 30 || snap.Ops[1].Mu != 40 {
		t.Fatalf("service rates must not scale: got %.2f/%.2f", snap.Ops[0].Mu, snap.Ops[1].Mu)
	}
	// LastSnapshot exposes the demand-scaled view.
	last, ok := sup.LastSnapshot()
	if !ok || math.Abs(last.Lambda0-25) > 1e-9 {
		t.Fatalf("LastSnapshot lambda0 %.2f, want 25", last.Lambda0)
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if len(pool.reports) != 1 {
		t.Fatalf("want 1 tenant report, got %d", len(pool.reports))
	}
	rep := pool.reports[0]
	if math.Abs(rep.ShedFraction-0.6) > 1e-9 {
		t.Fatalf("shed fraction %.3f, want 0.6 (15 of 25 offered shed)", rep.ShedFraction)
	}
	if !rep.Violating {
		t.Fatal("a shedding tenant must report Violating")
	}
}

// TestNoScalingWithoutShedding: offered equal to (or below) admitted must
// leave the snapshot untouched and report no shed fraction.
func TestNoScalingWithoutShedding(t *testing.T) {
	clock := newFakeClock()
	target := &fakeTarget{alloc: map[string]int{"extract": 2}}
	stepper := &capturingStepper{}
	pool := &reportingPool{Pool: FixedPool(4)}
	src := &fakeSource{snap: core.Snapshot{
		Lambda0:        10,
		OfferedLambda0: 10,
		Ops:            []core.OpRates{{Name: "extract", Lambda: 10, Mu: 30}},
	}}
	sup, err := New(Config{
		Target:    target,
		Operators: []string{"extract"},
		Stepper:   stepper,
		Pool:      pool,
		Source:    src,
		Interval:  time.Second,
		Clock:     clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Tick()
	snap, ok := stepper.last()
	if !ok {
		t.Fatal("stepper never ran")
	}
	if snap.Lambda0 != 10 || snap.Ops[0].Lambda != 10 {
		t.Fatalf("snapshot scaled without shedding: %+v", snap)
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if len(pool.reports) != 1 || pool.reports[0].ShedFraction != 0 {
		t.Fatalf("want one report with zero shed fraction, got %+v", pool.reports)
	}
}
