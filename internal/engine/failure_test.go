package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// taskOrder records, per task, the integer payloads a bolt's tasks
// processed, in processing order.
type taskOrder struct {
	mu   sync.Mutex
	seen map[int][]int
}

func (o *taskOrder) record(task int, tu Tuple) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.seen == nil {
		o.seen = make(map[int][]int)
	}
	o.seen[task] = append(o.seen[task], tu.Values[0].(int))
}

// assertArrivalOrder checks every task processed its tuples once each, in
// the order the spout emitted them (ascending payloads): a replay that puts
// a newer backlog ahead of an older stranded tail breaks it.
func (o *taskOrder) assertArrivalOrder(t *testing.T) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	for task, vs := range o.seen {
		for i := 1; i < len(vs); i++ {
			if vs[i] <= vs[i-1] {
				t.Errorf("task %d processed %d after %d: replay broke arrival order", task, vs[i], vs[i-1])
				break
			}
		}
	}
}

// waitFor spins on cond, yielding between reads, until it holds; the
// five-second deadline only bounds a hang. It is the package's one wait on
// state that announces no change.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestFailExecutorReplaysBacklog crashes executors under a deep backlog
// and checks the at-least-once promise: every external tuple's tree still
// completes, the captured backlog is accounted as replayed, no tuple is
// processed on the dead executor after the crash, and — the run being
// quiet by then — each task still sees its tuples in arrival order.
func TestFailExecutorReplaysBacklog(t *testing.T) {
	const n = 1000
	collector, factory := sharedCollector()
	order := &taskOrder{}
	wrapped := func(task int) Bolt {
		inner := factory(task)
		return BoltFunc(func(tu Tuple, emit Emit) error {
			time.Sleep(200 * time.Microsecond) // workload: modelled service
			order.record(task, tu)
			return inner.Process(tu, emit)
		})
	}
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &burstSpout{n: n} }).
		Bolt("work", 8, wrapped).
		Shuffle("src", "work").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"work": 2})
	// The whole burst is queued before the first crash: nothing new
	// arrives while the replays land.
	waitFor(t, "the burst to be injected", func() bool {
		started, _, _ := run.RootTotals()
		return started == n
	})
	if _, err := run.FailExecutor("work", 0); err != nil {
		t.Fatal(err)
	}
	// The second crash lands once the run has moved on from the first:
	// the backlog is still deep, and a completion has come since.
	completedAtCrash, _ := run.Completions()
	waitFor(t, "a completion after the first crash", func() bool {
		n, _ := run.Completions()
		return n > completedAtCrash
	})
	if _, err := run.FailExecutor("work", 1); err != nil {
		t.Fatal(err)
	}
	waitCompleted(t, run, n)
	if got := collector.count(); got != n {
		t.Errorf("processed %d tuples, want %d (lost or duplicated through the crashes)", got, n)
	}
	if run.ExecutorFailures() != 2 {
		t.Errorf("ExecutorFailures = %d, want 2", run.ExecutorFailures())
	}
	if run.Replayed() == 0 {
		t.Error("no tuples replayed despite crashing under a deep backlog")
	}
	order.assertArrivalOrder(t)
}

// stallRemote is a transport whose one send blocks until released and then
// fails without having delivered anything.
type stallRemote struct{ entered, release chan struct{} }

func (s *stallRemote) ProcessBatch(string, []RemoteItem, func(RemoteResult, error)) error {
	close(s.entered)
	<-s.release
	return errors.New("stallRemote: connection down")
}

// TestRemoteStrandReplaysInArrivalOrder fails a remote send while a backlog
// is queued behind the batch the drain loop popped: the popped batch is
// stranded for the reaper, which must replay it before the backlog it
// seizes from the queue, so each task still sees its tuples in arrival
// order on the local replacement.
func TestRemoteStrandReplaysInArrivalOrder(t *testing.T) {
	const k = 8
	feed := make(chan []Values)
	order := &taskOrder{}
	topo, err := NewTopology().
		Spout("src", 1, feedSpout(feed)).
		Bolt("work", 4, func(task int) Bolt {
			return BoltFunc(func(tu Tuple, _ Emit) error {
				order.record(task, tu)
				return nil
			})
		}).
		Shuffle("src", "work").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"work": 1})
	remote := &stallRemote{entered: make(chan struct{}), release: make(chan struct{})}
	closeAtCleanup(t, remote.release)
	if err := run.BindExecutor("work", 0, remote); err != nil {
		t.Fatal(err)
	}
	batch := func(from int) []Values {
		vs := make([]Values, k)
		for i := range vs {
			vs[i] = Values{from + i}
		}
		return vs
	}
	feed <- batch(0)
	<-remote.entered // the first batch is popped and inside the send
	feed <- batch(k)
	waitFor(t, "the backlog to queue behind the send", func() bool {
		return run.QueueLengths()["work"] == 2*k
	})
	close(remote.release)
	waitCompleted(t, run, 2*k)
	waitRemoteUnbound(t, run, "work")
	order.assertArrivalOrder(t)
}

// TestRebalanceRetiresFailingRemote fails a remote send while Rebalance
// retires the binding it belongs to, with more than a hundred tuples queued
// behind the send. The drain loop exits early, leaving its pinned batch
// stranded and the backlog unpopped in its closed queue; the binding is out
// of the route table by then, so no self-heal replays them. The retire
// itself must, or those roots never complete.
func TestRebalanceRetiresFailingRemote(t *testing.T) {
	const k, backlog = 8, 128
	feed := make(chan []Values)
	collector, factory := sharedCollector()
	topo, err := NewTopology().
		Spout("src", 1, feedSpout(feed)).
		Bolt("work", 4, factory).
		Shuffle("src", "work").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"work": 1})
	remote := &stallRemote{entered: make(chan struct{}), release: make(chan struct{})}
	closeAtCleanup(t, remote.release)
	if err := run.BindExecutor("work", 0, remote); err != nil {
		t.Fatal(err)
	}
	ids := func(from, n int) []Values {
		vs := make([]Values, n)
		for i := range vs {
			vs[i] = Values{from + i}
		}
		return vs
	}
	feed <- ids(0, k)
	<-remote.entered // the first batch is popped and inside the send
	feed <- ids(k, backlog)
	waitFor(t, "the backlog to queue behind the send", func() bool {
		return run.QueueLengths()["work"] == k+backlog
	})
	rebalanced := make(chan error, 1)
	go func() { rebalanced <- run.Rebalance(map[string]int{"work": 2}) }()
	// Fail the send once the route is swapped, so it fails mid-retire. Past
	// the bound the send fails first, and the self-heal's retire replays the
	// same leftover.
	for deadline := time.Now().Add(time.Second); run.Allocation()["work"] != 2 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	close(remote.release)
	if err := <-rebalanced; err != nil {
		t.Fatal(err)
	}
	waitCompleted(t, run, k+backlog)
	if started, completed, _ := run.RootTotals(); completed != started {
		t.Errorf("completed %d of %d roots", completed, started)
	}
	if got := collector.count(); got != k+backlog {
		t.Errorf("processed %d tuples, want %d", got, k+backlog)
	}
	if got := run.ExecutorFailures(); got != 1 {
		t.Errorf("ExecutorFailures = %d, want the failed binding once", got)
	}
}

// TestFailExecutorUnderFire hammers a mid-topology bolt with crashes while
// upstream emitters are actively routing to it — the emitters' redelivery
// path must land every bounced tuple on the replacement, and every root
// must still complete.
func TestFailExecutorUnderFire(t *testing.T) {
	const n = 400
	collector, factory := sharedCollector()
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &burstSpout{n: n} }).
		Bolt("fan", 4, func(int) Bolt {
			return BoltFunc(func(tu Tuple, emit Emit) error {
				for j := 0; j < 3; j++ {
					emit(Values{tu.Values[0], j})
				}
				return nil
			})
		}).
		Bolt("sink", 8, factory).
		Shuffle("src", "fan").
		Shuffle("fan", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"fan": 2, "sink": 4})
	for i := 0; i < 12; i++ {
		if _, err := run.FailExecutor("sink", i%4); err != nil {
			t.Fatal(err)
		}
	}
	waitCompleted(t, run, n)
	if got := collector.count(); got != 3*n {
		t.Errorf("sink saw %d tuples, want %d", got, 3*n)
	}
	if run.ExecutorFailures() != 12 {
		t.Errorf("ExecutorFailures = %d, want 12", run.ExecutorFailures())
	}
}

// TestFailExecutorRecoveryComposesWithRebalance: a crash followed by a
// rebalance (and the other way round) keeps the topology consistent — the
// replacement executor is a full citizen of the route table.
func TestFailExecutorRecoveryComposesWithRebalance(t *testing.T) {
	const n = 600
	collector, factory := sharedCollector()
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &burstSpout{n: n} }).
		Bolt("work", 8, factory).
		Shuffle("src", "work").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"work": 4})
	if _, err := run.FailExecutor("work", 2); err != nil {
		t.Fatal(err)
	}
	if err := run.Rebalance(map[string]int{"work": 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := run.FailExecutor("work", 1); err != nil {
		t.Fatal(err)
	}
	if err := run.Rebalance(map[string]int{"work": 6}); err != nil {
		t.Fatal(err)
	}
	waitCompleted(t, run, n)
	if got := collector.count(); got != n {
		t.Errorf("processed %d tuples, want %d", got, n)
	}
	if got := run.Allocation()["work"]; got != 6 {
		t.Errorf("allocation after the arc = %d, want 6", got)
	}
}

// TestFailExecutorValidation: bad bolt names and indices fail cleanly, and
// a stopped run refuses injections.
func TestFailExecutorValidation(t *testing.T) {
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &burstSpout{n: 0} }).
		Bolt("work", 4, func(int) Bolt { return BoltFunc(func(Tuple, Emit) error { return nil }) }).
		Shuffle("src", "work").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := topo.Start(RunConfig{Alloc: map[string]int{"work": 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.FailExecutor("nope", 0); err == nil {
		t.Error("unknown bolt accepted")
	}
	if _, err := run.FailExecutor("work", 2); err == nil {
		t.Error("out-of-range executor accepted")
	}
	if _, err := run.FailExecutor("work", -1); err == nil {
		t.Error("negative executor accepted")
	}
	if err := run.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := run.FailExecutor("work", 0); !errors.Is(err, ErrStopped) {
		t.Errorf("stopped run: %v, want ErrStopped", err)
	}
}

// batchSpout injects its n tuples as one EmitBatch, so they reach a bolt
// with one executor as one popped batch.
type batchSpout struct{ n int }

func (s *batchSpout) Run(ctx SpoutContext) error {
	vs := make([]Values, s.n)
	for i := range vs {
		vs[i] = Values{i}
	}
	ctx.EmitBatch(vs)
	<-ctx.Done()
	return nil
}

// TestBatchScopeCrashDeliversBuffered pins the crash rule of a fast bolt's
// batch scope: the tuples served before the crash have their children
// forked and still buffered — nothing has reached the next bolt — and the
// dying executor delivers them before it strands the batch's tail. Every
// root completes exactly once, each child reaches the sink once, and the
// tail replays onto the replacement.
func TestBatchScopeCrashDeliversBuffered(t *testing.T) {
	const n, at = 20, 10 // the crash lands while tuple at is in service
	entered, release := make(chan struct{}), make(chan struct{})
	var tripped atomic.Bool
	sink, sinkFactory := sharedCollector()
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &batchSpout{n: n} }).
		Bolt("mid", 4, func(int) Bolt {
			return BoltFunc(func(tu Tuple, emit Emit) error {
				emit(tu.Values)
				if tu.Values[0].(int) == at && tripped.CompareAndSwap(false, true) {
					close(entered)
					<-release
				}
				return nil
			})
		}).
		Bolt("sink", 1, sinkFactory).
		Shuffle("src", "mid").
		Shuffle("mid", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"mid": 1, "sink": 1})
	// A failed assertion must not leave the executor parked, or Stop waits
	// for it forever; cleanups run last-in first-out, so this precedes Stop.
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(free)
	<-entered
	if got, queued := sink.count(), run.QueueLengths()["sink"]; got != 0 || queued != 0 {
		t.Fatalf("sink has served %d and queued %d children mid-batch, want 0 and 0: a fast bolt delivers once per batch", got, queued)
	}
	victim := run.bolts[0].route.Load().execs[0]
	failed := make(chan error, 1)
	go func() {
		_, err := run.FailExecutor("mid", 0)
		failed <- err
	}()
	waitFor(t, "the stop switch", victim.q.halted.Load)
	free()
	if err := <-failed; err != nil {
		t.Fatal(err)
	}
	waitCompleted(t, run, n)
	if started, completed, _ := run.RootTotals(); started != n || completed != n {
		t.Fatalf("%d roots started and %d completed, want %d and %d", started, completed, n, n)
	}
	if got := run.Replayed(); got != n-at-1 {
		t.Errorf("replayed %d tuples, want the %d-tuple tail behind the crash", got, n-at-1)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	seen := make(map[int]int, n)
	for _, v := range sink.seen {
		seen[v[0].(int)]++
	}
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Errorf("child of root %d reached the sink %d times, want once", i, seen[i])
		}
	}
}
