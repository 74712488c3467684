package loop

import (
	"errors"
	"io"
	"log/slog"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/core"
)

// TestFailureTrackerPrunesStaleKinds: a record whose window has elapsed is
// removed by the next recordFailure sweep, whatever kind it was for — a
// long-lived daemon's tracker must not accumulate one record per action
// kind forever.
func TestFailureTrackerPrunesStaleKinds(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	ft := newFailureTracker(3, 10*time.Second, logger)
	now := time.Unix(0, 0)
	ft.recordFailure("scale-out", errors.New("boom"), now)
	ft.recordFailure("scale-out", errors.New("boom"), now)
	ft.recordFailure("rebalance", errors.New("boom"), now.Add(5*time.Second))
	ft.mu.Lock()
	kinds := len(ft.records)
	ft.mu.Unlock()
	if kinds != 2 {
		t.Fatalf("records before expiry = %d, want 2", kinds)
	}
	// 11s after the scale-out failures: a failure of a *different* kind
	// must sweep the stale scale-out record (and the rebalance one at 6s
	// stays).
	ft.recordFailure("preempt-shrink", errors.New("boom"), now.Add(11*time.Second))
	ft.mu.Lock()
	_, staleKept := ft.records["scale-out"]
	_, freshKept := ft.records["rebalance"]
	kinds = len(ft.records)
	ft.mu.Unlock()
	if staleKept {
		t.Fatal("stale scale-out record survived the sweep")
	}
	if !freshKept {
		t.Fatal("in-window rebalance record was swept")
	}
	if kinds != 2 {
		t.Fatalf("records after sweep = %d, want 2", kinds)
	}
	// A fresh failure of the swept kind starts from a clean count: two
	// more failures must not suppress (threshold 3).
	later := now.Add(12 * time.Second)
	ft.recordFailure("scale-out", errors.New("boom"), later)
	if skip, _ := ft.shouldSkip("scale-out", later); skip {
		t.Fatal("swept kind suppressed after a single fresh failure")
	}
}

// churnPool wraps fakeArbiterPool with the lease's failure-loss counter so
// the supervisor can attribute forced shrinks to machine failure.
type churnPool struct {
	fakeArbiterPool
	mu   sync.Mutex
	lost int
}

func (p *churnPool) LostSlots() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lost
}

func (p *churnPool) loseSlots(n, newKmax int) {
	p.mu.Lock()
	p.lost += n
	p.mu.Unlock()
	p.setKmax(newKmax)
}

// TestSlotsLostShrinkAttribution drives the two forced-shrink causes
// through one supervisor: a budget drop with a fresh failure-loss reading
// must be reported as SlotsLost, a later drop without one as Preempted —
// and both must act inside an open cooldown.
func TestSlotsLostShrinkAttribution(t *testing.T) {
	clock := newFakeClock()
	target := &fakeTarget{alloc: map[string]int{"a": 4, "b": 4}}
	pool := &churnPool{fakeArbiterPool: fakeArbiterPool{kmax: 8, grantCap: 8}}
	src := &fakeSource{snap: core.Snapshot{
		Lambda0: 2, Ops: []core.OpRates{{Name: "a", Lambda: 1, Mu: 2}, {Name: "b", Lambda: 1, Mu: 2}},
	}}
	sup, err := New(Config{
		Target:    target,
		Operators: []string{"a", "b"},
		Stepper:   &fakeStepper{}, // always holds; only forced shrinks act
		Pool:      pool,
		Source:    src,
		Interval:  time.Second,
		Cooldown:  100 * time.Second,
		Clock:     clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Tick() // snapshot stored; budget still covers the allocation
	// Two slots go down with a machine: the arbiter re-arbitrates the
	// grant to 6 and the lease's loss counter ticks.
	pool.loseSlots(2, 6)
	clock.advance(time.Second)
	sup.Tick()
	hist := sup.History()
	if len(hist) != 1 || !hist[0].Applied {
		t.Fatalf("want one applied event after the failover shrink, got %+v", hist)
	}
	if !hist[0].SlotsLost || hist[0].Preempted {
		t.Fatalf("failover shrink misattributed: %+v", hist[0])
	}
	if got := target.Allocation(); got["a"]+got["b"] != 6 {
		t.Fatalf("allocation not re-fit to the surviving grant: %v", got)
	}
	// A further drop without a loss reading is a preemption.
	pool.setKmax(4)
	clock.advance(time.Second)
	sup.Tick()
	hist = sup.History()
	if len(hist) != 2 {
		t.Fatalf("want two events, got %+v", hist)
	}
	if !hist[1].Preempted || hist[1].SlotsLost {
		t.Fatalf("preemption shrink misattributed: %+v", hist[1])
	}
	if got := target.Allocation(); got["a"]+got["b"] != 4 {
		t.Fatalf("allocation not vacated to the preempted grant: %v", got)
	}
}

// TestLastSnapshotFollowsAppliedAllocation holds what LastSnapshot means
// between rounds: an applied actuation — a scale-out, a preemption shrink,
// a failover shrink — leaves it carrying the allocation and grant now in
// force and no measured sojourn, all through the cooldown, because that is
// what the ingest gate plans admission on while no round measures; the
// rates stay the last measured ones, the next measured round brings the
// sojourn back, and a failed round changes nothing.
func TestLastSnapshotFollowsAppliedAllocation(t *testing.T) {
	clock := newFakeClock()
	target := &fakeTarget{alloc: map[string]int{"a": 2, "b": 2}}
	pool := &churnPool{fakeArbiterPool: fakeArbiterPool{kmax: 4, grantCap: 12}}
	stepper := &fakeStepper{}
	script := func(d core.Decision) {
		stepper.mu.Lock()
		stepper.d = d
		stepper.mu.Unlock()
	}
	src := &fakeSource{snap: core.Snapshot{
		Lambda0: 2, MeasuredSojourn: 0.5,
		Ops: []core.OpRates{{Name: "a", Lambda: 1, Mu: 2}, {Name: "b", Lambda: 1, Mu: 2}},
	}}
	const cooldown = 10 * time.Second
	sup, err := New(Config{
		Target:    target,
		Operators: []string{"a", "b"},
		Stepper:   stepper,
		Pool:      pool,
		Source:    src,
		Interval:  time.Second,
		Cooldown:  cooldown,
		Clock:     clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, alloc []int, kmax int, sojourn float64) {
		t.Helper()
		snap, ok := sup.LastSnapshot()
		if !ok {
			t.Fatalf("%s: no snapshot", when)
		}
		if !slices.Equal(snap.Alloc, alloc) || snap.Kmax != kmax || snap.MeasuredSojourn != sojourn {
			t.Errorf("%s: snapshot alloc %v Kmax %d sojourn %v, want %v %d %v",
				when, snap.Alloc, snap.Kmax, snap.MeasuredSojourn, alloc, kmax, sojourn)
		}
		if snap.Lambda0 != 2 || len(snap.Ops) != 2 || snap.Ops[0].Lambda != 1 {
			t.Errorf("%s: rates not the last measured ones: %+v", when, snap)
		}
	}
	scaleOut := core.Decision{Action: core.ActionScaleOut, Target: []int{4, 4}, TargetKmax: 8, Reason: "scripted"}

	sup.Tick()
	check("measured hold round", []int{2, 2}, 4, 0.5)

	target.rebalanceErr = errRebalanceRefused
	script(scaleOut)
	clock.advance(time.Second)
	sup.Tick()
	if hist := sup.History(); len(hist) != 1 || hist[0].Err == nil {
		t.Fatalf("want one failed event, got %+v", hist)
	}
	check("failed scale-out", []int{2, 2}, 4, 0.5)

	target.rebalanceErr = nil
	clock.advance(cooldown)
	sup.Tick()
	script(core.Decision{})
	check("applied scale-out", []int{4, 4}, 8, 0)
	clock.advance(time.Second)
	sup.Tick()
	check("inside the cooldown", []int{4, 4}, 8, 0)

	pool.setKmax(6)
	clock.advance(time.Second)
	sup.Tick()
	check("preemption shrink", []int{3, 3}, 6, 0)

	pool.loseSlots(2, 4)
	clock.advance(time.Second)
	sup.Tick()
	check("failover shrink", []int{2, 2}, 4, 0)
	if hist := sup.History(); len(hist) != 4 || !hist[2].Preempted || !hist[3].SlotsLost {
		t.Fatalf("want failed, scale-out, preempted, slots-lost; got %+v", hist)
	}

	clock.advance(cooldown)
	sup.Tick()
	check("next measured round", []int{2, 2}, 4, 0.5)
}
