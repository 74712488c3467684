package engine

import (
	"testing"
	"time"
)

// TestPooledTreesNoLostOrDoubleCountedSojourns stress-tests the pooled
// ackTree/timeoutEntry recycling under concurrent fan-out: many spouts
// emit concurrently through a fan-out stage while trees are completed and
// recycled by several executors. If a recycled tree were ever completed
// twice, completed would overrun started; if a completion were lost, the
// run could never drain. The root log must account for exactly one
// completion per emitted root.
func TestPooledTreesNoLostOrDoubleCountedSojourns(t *testing.T) {
	const (
		spouts  = 4
		perSpot = 2000
		total   = spouts * perSpot
	)
	topo, err := NewTopology().
		Spout("src", spouts, func(int) Spout { return &burstSpout{n: perSpot} }).
		Bolt("fan", 8, func(int) Bolt {
			return BoltFunc(func(tp Tuple, emit Emit) error {
				for j := 0; j < 3; j++ {
					emit(Values{tp.Values[0], j})
				}
				return nil
			})
		}).
		Bolt("mid", 8, func(int) Bolt {
			return BoltFunc(func(tp Tuple, emit Emit) error {
				emit(tp.Values)
				return nil
			})
		}).
		Bolt("sink", 8, func(int) Bolt {
			return BoltFunc(func(Tuple, Emit) error { return nil })
		}).
		Shuffle("src", "fan").
		Shuffle("fan", "mid").
		Shuffle("mid", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := topo.Start(RunConfig{Alloc: map[string]int{"fan": 4, "mid": 4, "sink": 4}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = run.Stop() })

	waitCompleted(t, run, total)

	started, completed, nanos := run.roots.totals()
	if started != total {
		t.Errorf("started roots = %d, want %d", started, total)
	}
	if completed != total {
		t.Errorf("completed roots = %d, want %d (lost or double-counted trees)", completed, total)
	}
	if nanos <= 0 {
		t.Errorf("total sojourn = %d, want > 0", nanos)
	}
	if pending := run.roots.pending(); pending != 0 {
		t.Errorf("pending roots after drain = %d, want 0", pending)
	}
	count, mean := run.Completions()
	if count != total {
		t.Errorf("Completions count = %d, want %d", count, total)
	}
	if mean <= 0 {
		t.Errorf("mean sojourn = %v, want > 0", mean)
	}
	// Sanity on the per-operator accounting that rides the same path: the
	// fan stage must have served exactly the external tuples, the mid and
	// sink stages exactly 3x that.
	rep := run.DrainInterval()
	if rep.ExternalArrivals != total {
		t.Errorf("external arrivals = %d, want %d", rep.ExternalArrivals, total)
	}
	if got := rep.Ops[0].Served; got != total {
		t.Errorf("fan served %d, want %d", got, total)
	}
	for op := 1; op <= 2; op++ {
		if got := rep.Ops[op].Served; got != 3*total {
			t.Errorf("op %d served %d, want %d", op, got, 3*total)
		}
	}
	if rep.SojournCount != total {
		t.Errorf("interval sojourn count = %d, want %d", rep.SojournCount, total)
	}
}

// slowBolt sleeps per tuple.
type slowBolt struct{ d time.Duration }

func (b slowBolt) Process(Tuple, Emit) error {
	time.Sleep(b.d) // workload: modelled service
	return nil
}

// TestSampledServiceTimeCoversOneTuple pins what a service sample
// measures: every served tuple is a sample, and each covers exactly that
// tuple's own service — not the wait in the queue before it, nor a run of
// tuples since an earlier stamp (which would inflate BusyTime and deflate
// the measured service rate).
func TestSampledServiceTimeCoversOneTuple(t *testing.T) {
	const (
		n   = 40
		per = 5 * time.Millisecond
	)
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &burstSpout{n: n} }).
		Bolt("slow", 2, func(int) Bolt { return slowBolt{d: per} }).
		Shuffle("src", "slow").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"slow": 1})
	waitCompleted(t, run, n)
	rep := run.DrainInterval()
	op := rep.Ops[0]
	if op.Served != n {
		t.Fatalf("served = %d, want %d", op.Served, n)
	}
	if op.Sampled != n {
		t.Errorf("sampled = %d, want every one of the %d tuples", op.Sampled, n)
	}
	avg := op.BusyTime / time.Duration(max(op.Sampled, 1))
	if avg < per {
		t.Errorf("mean sampled service %v below the %v sleep floor", avg, per)
	}
	if avg > 3*per {
		t.Errorf("mean sampled service %v covers more than one tuple, want ~%v", avg, per)
	}
}

// TestQueuePopAllAndShrink covers the batch consumer path directly: popAll
// hands the whole ring over, and a queue that ballooned during a burst
// releases its capacity once the burst is over.
func TestQueuePopAllAndShrink(t *testing.T) {
	q := newQueue()
	const burst = 3 * shrinkCap
	for i := 0; i < burst; i++ {
		q.push(queueItem{task: i})
	}
	ring, head, n, ok := q.popAll(nil)
	if !ok || n != burst {
		t.Fatalf("popAll = (n=%d, ok=%v), want %d items", n, ok, burst)
	}
	mask := len(ring) - 1
	for i := 0; i < n; i++ {
		it := &ring[(head+i)&mask]
		if it.task != i {
			t.Fatalf("item %d has task %d, want %d (FIFO violated)", i, it.task, i)
		}
		*it = queueItem{}
	}
	// A small trickle afterwards must not keep the burst-sized ring: hand
	// the big ring back as spare, drain a few small batches, and watch the
	// capacity fall back.
	for round := 0; round < 4; round++ {
		for i := 0; i < 8; i++ {
			q.push(queueItem{task: i})
		}
		ring2, head2, n2, ok2 := q.popAll(ring)
		if !ok2 || n2 != 8 {
			t.Fatalf("round %d: popAll = (n=%d, ok=%v)", round, n2, ok2)
		}
		m2 := len(ring2) - 1
		for i := 0; i < n2; i++ {
			ring2[(head2+i)&m2] = queueItem{}
		}
		ring = ring2
	}
	if cap(ring) > shrinkCap {
		t.Errorf("ring capacity %d still burst-sized after trickle rounds (want <= %d)", cap(ring), shrinkCap)
	}
}
