package loop

import (
	"errors"
	"io"
	"log/slog"
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
