package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Tests of the one stop rule (Run.install): a displaced executor stops at
// its tuple boundary and its successors start with its backlog, whether a
// rebalance, a rebind or a crash displaced it.

// ids returns n one-field tuples with payloads from, from+1, ….
func ids(from, n int) []Values {
	vs := make([]Values, n)
	for i := range vs {
		vs[i] = Values{from + i}
	}
	return vs
}

// gatedBolt builds a bolt whose tasks record each tuple on entry and, when
// held says so for its payload, announce it on entered and wait for a token
// on gate (or for gate to close).
func gatedBolt(order *taskOrder, entered chan<- int, gate <-chan struct{}, held func(int) bool) BoltFactory {
	return func(task int) Bolt {
		return BoltFunc(func(tu Tuple, _ Emit) error {
			order.record(task, tu)
			if id := tu.Values[0].(int); held(id) {
				entered <- id
				<-gate
			}
			return nil
		})
	}
}

// startGated starts src → work (4 tasks, one executor) with every tuple
// held, feeds k tuples in two batches — the first popped and in service
// behind its head, the second queued — and returns once the head is inside
// Process.
func startGated(t *testing.T, k int) (run *Run, order *taskOrder, gate chan struct{}) {
	t.Helper()
	feed := make(chan []Values)
	entered := make(chan int, k) // one send per tuple
	order, gate = &taskOrder{}, make(chan struct{})
	topo, err := NewTopology().
		Spout("src", 1, feedSpout(feed)).
		Bolt("work", 4, gatedBolt(order, entered, gate, func(int) bool { return true })).
		Shuffle("src", "work").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run = startTopo(t, topo, map[string]int{"work": 1})
	closeAtCleanup(t, gate)
	feed <- ids(0, k/2)
	if id := <-entered; id != 0 {
		t.Fatalf("tuple %d entered first, want 0", id)
	}
	feed <- ids(k/2, k-k/2)
	waitFor(t, "the second batch to queue", func() bool { return run.QueueLengths()["work"] == k })
	return run, order, gate
}

// stopping waits until the executor's stop switch is set.
func stopping(t *testing.T, ex *executor) {
	t.Helper()
	waitFor(t, "the stop switch", ex.q.halted.Load)
}

// assertEachOnce checks every payload in [0, n) was processed exactly once.
func (o *taskOrder) assertEachOnce(t *testing.T, n int) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	seen := make([]int, n)
	for _, vs := range o.seen {
		for _, v := range vs {
			seen[v]++
		}
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("tuple %d processed %d times, want once", id, c)
		}
	}
}

// TestHandoverRebalanceAtTupleBoundary: Rebalance 1→2 of a bolt whose one
// executor is inside a held tuple, with k−1 more behind it (half in its
// popped batch, half still queued), returns once that one tuple is
// released. The successors serve the other k−1, each exactly once and in
// per-task arrival order, and the handover counts as neither a failure nor
// a replay.
func TestHandoverRebalanceAtTupleBoundary(t *testing.T) {
	const k = 16
	run, order, gate := startGated(t, k)
	rebalanced := make(chan error, 1)
	go func() { rebalanced <- run.Rebalance(map[string]int{"work": 2}) }()
	stopping(t, run.bolts[0].route.Load().execs[0])
	gate <- struct{}{} // the tuple in service ends
	select {
	case err := <-rebalanced:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Rebalance did not return once the tuple in service was released: it waits on the backlog")
	}
	if got := run.Allocation()["work"]; got != 2 {
		t.Fatalf("allocation = %d, want 2", got)
	}
	close(gate)
	waitCompleted(t, run, k)
	order.assertEachOnce(t, k)
	order.assertArrivalOrder(t)
	if run.Replayed() != 0 || run.ExecutorFailures() != 0 {
		t.Errorf("Replayed = %d, ExecutorFailures = %d: a handover counted as a failure", run.Replayed(), run.ExecutorFailures())
	}
	assertSettled(t, run)
}

// TestHandoverStopByRacingRebalance: a StopBy whose deadline has passed,
// racing a Rebalance of a held bolt, returns once the tuple in service is
// released — its deadline plus that tuple's service — and strands the
// backlog the successors took over, counted.
func TestHandoverStopByRacingRebalance(t *testing.T) {
	const k = 16
	run, _, gate := startGated(t, k)
	rebalanced := make(chan error, 1)
	go func() { rebalanced <- run.Rebalance(map[string]int{"work": 2}) }()
	stopping(t, run.bolts[0].route.Load().execs[0])
	stopped := make(chan error, 1)
	go func() { stopped <- run.StopBy(time.Now()) }()
	waitFor(t, "Stop's drain to arm", run.draining.Load)
	gate <- struct{}{} // the tuple in service ends
	released := time.Now()
	select {
	case err := <-stopped:
		if took := time.Since(released); took > 2*time.Second {
			t.Errorf("StopBy returned %v after the tuple in service ended", took)
		}
		var te *TimeoutError
		if !errors.As(err, &te) || te.Stranded != k-1 {
			t.Errorf("StopBy = %v, want a TimeoutError stranding the %d tuples behind the released one", err, k-1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("StopBy did not return once the tuple in service was released: the Rebalance holds the run lock over the backlog")
	}
	if err := <-rebalanced; err != nil {
		t.Fatal(err)
	}
}

// orderRemote is a RemoteExecutor that records what it serves, per task
// and in the order it is sent, and answers each batch at once.
type orderRemote struct{ order *taskOrder }

func (o orderRemote) ProcessBatch(_ string, items []RemoteItem, done func(RemoteResult, error)) error {
	for _, it := range items {
		o.order.record(it.Task, Tuple{Values: it.Values})
	}
	done(RemoteResult{Emitted: make([][]Values, len(items))}, nil)
	return nil
}

// TestHandoverKeepsArrivalOrder displaces a single executor while it is
// inside a held tuple with a backlog behind it, by a crash and by a rebind
// to a remote destination, and sends more traffic while the displacement
// waits: every tuple is processed exactly once and each task sees its
// tuples in arrival order — the stranded tail, then the queued backlog,
// then what arrived during and after the handover. Only the crash counts
// what it left as replayed.
func TestHandoverKeepsArrivalOrder(t *testing.T) {
	const k = 32
	for _, tc := range []struct {
		name     string
		displace func(run *Run, order *taskOrder) error
		replayed int64
	}{
		{"FailExecutor", func(run *Run, _ *taskOrder) error { _, err := run.FailExecutor("work", 0); return err }, 2*k - 1},
		{"BindExecutor", func(run *Run, order *taskOrder) error { return run.BindExecutor("work", 0, orderRemote{order}) }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			feed := make(chan []Values)
			entered := make(chan int, 1)
			order, gate := &taskOrder{}, make(chan struct{})
			topo, err := NewTopology().
				Spout("src", 1, feedSpout(feed)).
				Bolt("work", 4, gatedBolt(order, entered, gate, func(id int) bool { return id == 0 })).
				Shuffle("src", "work").
				Build()
			if err != nil {
				t.Fatal(err)
			}
			run := startTopo(t, topo, map[string]int{"work": 1})
			closeAtCleanup(t, gate)
			feed <- ids(0, k)
			<-entered
			displaced := make(chan error, 1)
			go func() { displaced <- tc.displace(run, order) }()
			stopping(t, run.bolts[0].route.Load().execs[0])
			feed <- ids(k, k) // arrives while the displacement waits
			waitFor(t, "the arrivals to queue", func() bool { return run.QueueLengths()["work"] == 2*k })
			close(gate)
			if err := <-displaced; err != nil {
				t.Fatal(err)
			}
			feed <- ids(2*k, k)
			waitCompleted(t, run, 3*k)
			order.assertEachOnce(t, 3*k)
			order.assertArrivalOrder(t)
			if got := run.Replayed(); got != tc.replayed {
				t.Errorf("Replayed = %d, want %d", got, tc.replayed)
			}
		})
	}
}

// TestHandoverSelfLoop rebalances a self-looping bolt — the FPD detector's
// shape: fields-grouped on its key, each tuple notifying its own task back
// through the bolt until its hops run out, then reporting to a sink on a
// named stream —
// 1→3→1 over and over while trees circulate. Every root completes once,
// its report reaches the sink once, no two executors are ever inside one
// task instance, and nothing counts as replayed.
func TestHandoverSelfLoop(t *testing.T) {
	const rounds, per, hops = 12, 20, 40
	const n = rounds * per
	var overlaps atomic.Int64
	key := func(v Values) uint64 { return uint64(v[0].(int)) }
	feed := make(chan []Values)
	sink, sinkFactory := sharedCollector()
	topo, err := NewTopology().
		Spout("src", 1, feedSpout(feed)).
		Bolt("detector", 6, func(int) Bolt {
			var inside atomic.Bool
			return BoltFunc(func(tu Tuple, emit Emit) error {
				if !inside.CompareAndSwap(false, true) {
					overlaps.Add(1)
				}
				defer inside.Store(false)
				id, left := tu.Values[0].(int), tu.Values[1].(int)
				if left == 0 {
					emit.To("report")(Values{id})
				} else {
					emit(Values{id, left - 1})
				}
				return nil
			})
		}).
		Bolt("sink", 1, sinkFactory).
		Fields("src", "detector", key).
		Fields("detector", "detector", key).
		ShuffleOn("report", "detector", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"detector": 1, "sink": 1})
	for r := 0; r < rounds; r++ {
		vs := make([]Values, per)
		for i := range vs {
			vs[i] = Values{r*per + i, hops}
		}
		feed <- vs
		if err := run.Rebalance(map[string]int{"detector": 1 + 2*(1-r%2)}); err != nil {
			t.Fatal(err)
		}
	}
	waitCompleted(t, run, n)
	if started, completed, _ := run.RootTotals(); started != n || completed != n {
		t.Errorf("%d roots started and %d completed, want %d and %d", started, completed, n, n)
	}
	sink.mu.Lock()
	seen := make([]int, n)
	for _, v := range sink.seen {
		seen[v[0].(int)]++
	}
	sink.mu.Unlock()
	for id, c := range seen {
		if c != 1 {
			t.Errorf("root %d reported %d times, want once", id, c)
		}
	}
	if got := overlaps.Load(); got != 0 {
		t.Errorf("%d tuples entered a task instance another executor was inside", got)
	}
	if run.Replayed() != 0 || run.ExecutorFailures() != 0 {
		t.Errorf("Replayed = %d, ExecutorFailures = %d: a rebalance counted as a failure", run.Replayed(), run.ExecutorFailures())
	}
	assertSettled(t, run)
}

// TestHandoverSiblingSelfLoop rebalances a bolt whose tuples emit into
// every one of its tasks — so into sibling executors' queues — while each
// displaced executor is inside a held tuple, 2→3 and 3→1. The held tuples
// are released one at a time, each once the executor before it has exited:
// a displaced queue that closed while a sibling was still in service would
// refuse that sibling's children, and the Rebalance would never return.
// Every root is served once, per task in arrival order, and nothing counts
// as replayed.
func TestHandoverSiblingSelfLoop(t *testing.T) {
	const tasks, backlog = 6, 12
	for _, tc := range []struct{ from, to int }{{2, 3}, {3, 1}} {
		t.Run(fmt.Sprintf("%dto%d", tc.from, tc.to), func(t *testing.T) {
			n := tc.from + backlog
			var overlaps atomic.Int64
			feed := make(chan []Values)
			entered := make(chan int, tc.from)
			gates := make([]chan struct{}, tc.from)
			for i := range gates {
				gates[i] = make(chan struct{})
			}
			order := &taskOrder{}
			key := func(v Values) uint64 { return uint64(v[1].(int)) }
			topo, err := NewTopology().
				Spout("src", 1, feedSpout(feed)).
				Bolt("work", tasks, func(task int) Bolt {
					var inside atomic.Bool
					return BoltFunc(func(tu Tuple, emit Emit) error {
						if !inside.CompareAndSwap(false, true) {
							overlaps.Add(1)
						}
						defer inside.Store(false)
						id := tu.Values[0].(int)
						if id < 0 {
							return nil // a child
						}
						order.record(task, tu)
						if id < tc.from {
							entered <- id
							<-gates[id]
						}
						for k := 0; k < tasks; k++ {
							emit(Values{-1, k})
						}
						return nil
					})
				}).
				Fields("src", "work", key).
				Fields("work", "work", key).
				Build()
			if err != nil {
				t.Fatal(err)
			}
			run := startTopo(t, topo, map[string]int{"work": tc.from})
			for _, g := range gates {
				closeAtCleanup(t, g)
			}
			// Root i < from keys task i, which the first assignment
			// (task % from) gives executor i: one held root per executor.
			held := make([]Values, tc.from)
			for i := range held {
				held[i] = Values{i, i}
			}
			feed <- held
			for range held {
				<-entered
			}
			queued := make([]Values, backlog)
			for i := range queued {
				queued[i] = Values{tc.from + i, i % tasks}
			}
			feed <- queued
			waitFor(t, "the backlog to queue", func() bool { return run.QueueLengths()["work"] == n })
			old := run.bolts[0].route.Load().execs
			rebalanced := make(chan error, 1)
			go func() { rebalanced <- run.Rebalance(map[string]int{"work": tc.to}) }()
			for _, ex := range old {
				stopping(t, ex)
			}
			closed := func(q *queue) bool {
				q.mu.Lock()
				defer q.mu.Unlock()
				return q.closed
			}
			for i, ex := range old {
				gates[i] <- struct{}{}
				<-ex.done
				// Let a handover that seizes an exited executor's queue
				// before its siblings have exited do so.
				for j := 0; j < 100 && !closed(ex.q); j++ {
					runtime.Gosched()
				}
			}
			select {
			case err := <-rebalanced:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Rebalance did not return: a sibling's child bounced off a displaced queue closed before it exited")
			}
			if got := run.Allocation()["work"]; got != tc.to {
				t.Fatalf("allocation = %d, want %d", got, tc.to)
			}
			waitCompleted(t, run, int64(n))
			order.assertEachOnce(t, n)
			order.assertArrivalOrder(t)
			if got := overlaps.Load(); got != 0 {
				t.Errorf("%d tuples entered a task instance another executor was inside", got)
			}
			if run.Replayed() != 0 || run.ExecutorFailures() != 0 {
				t.Errorf("Replayed = %d, ExecutorFailures = %d: a rebalance counted as a failure", run.Replayed(), run.ExecutorFailures())
			}
			assertSettled(t, run)
		})
	}
}

// TestSlowBoltFoldsPerTuple: a bolt voted slow folds each served tuple into
// its probe as it is served, so an interval that ends mid-batch counts the
// tuples served so far — here 3 of a 10-tuple popped batch — instead of
// nothing until the batch ends.
func TestSlowBoltFoldsPerTuple(t *testing.T) {
	const n, released = 10, 3
	feed := make(chan []Values)
	entered := make(chan int, n) // one send per tuple
	order, gate := &taskOrder{}, make(chan struct{})
	topo, err := NewTopology().
		Spout("src", 1, feedSpout(feed)).
		Bolt("work", 4, gatedBolt(order, entered, gate, func(int) bool { return true })).
		Shuffle("src", "work").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"work": 1})
	closeAtCleanup(t, gate)
	run.bolts[0].slow.Store(true) // as a vote of long services would
	feed <- ids(0, n)             // one EmitBatch: one popped batch
	for i := 0; i < released; i++ {
		<-entered
		gate <- struct{}{}
	}
	<-entered // the next tuple is in service: the released ones are folded
	rep := run.DrainInterval()
	if got := rep.Ops[0].Served; got != released {
		t.Errorf("interval served = %d with %d of a %d-tuple batch released, want %d", got, released, n, released)
	}
	if rep.Ops[0].BusyTime <= 0 {
		t.Errorf("interval busy time = %v, want the released tuples' service", rep.Ops[0].BusyTime)
	}
	close(gate)
	waitCompleted(t, run, n)
}
