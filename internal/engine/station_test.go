package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/obs"
)

// Tests of the station discipline: shuffle traffic into a slow bolt goes to
// the executor with the least outstanding work (emitter.leastLoaded), and
// the outstanding count it reads balances on every path a tuple can take.

// spoutFunc adapts a function to the Spout interface.
type spoutFunc func(ctx SpoutContext) error

func (f spoutFunc) Run(ctx SpoutContext) error { return f(ctx) }

// feedSpout emits whatever the test sends it: a one-element slice through
// Emit, anything longer as one EmitBatch.
func feedSpout(feed <-chan []Values) func(int) Spout {
	return func(int) Spout {
		return spoutFunc(func(ctx SpoutContext) error {
			for {
				select {
				case <-ctx.Done():
					return nil
				case vs := <-feed:
					if len(vs) == 1 {
						ctx.Emit(vs[0])
					} else {
						ctx.EmitBatch(vs)
					}
				}
			}
		})
	}
}

// closeAtCleanup closes ch when the test ends unless the test already has:
// a bolt parked on it must let a failed run stop. Registered after
// startTopo's Stop, so it runs before it.
func closeAtCleanup(t *testing.T, ch chan struct{}) {
	t.Cleanup(func() {
		select {
		case <-ch:
		default:
			close(ch)
		}
	})
}

// slowService is the test bolts' own service time, far above handoffCost.
const slowService = 200 * time.Microsecond

// primeSlow feeds every one of the k executors a full vote window of
// tuples, one at a time, and waits for them: afterwards the bolt is
// flagged slow and every executor is idle.
func primeSlow(t *testing.T, run *Run, feed chan<- []Values, k int) {
	t.Helper()
	base, _ := run.Completions()
	for i := 0; i < k*serviceWindow; i++ {
		feed <- []Values{{-1}}
		waitCompleted(t, run, base+int64(i)+1)
	}
	for _, br := range run.bolts {
		if !br.slow.Load() {
			t.Fatalf("bolt %q not flagged slow after %d samples of %v service each", br.spec.name, serviceWindow, slowService)
		}
	}
}

// TestShuffleAvoidsBusyExecutor is the model's station in one picture: with
// one of two executors stuck in a long service, every arrival that finds
// the other one idle is served at once. Round-robin dealing queues every
// second one behind the stuck executor.
func TestShuffleAvoidsBusyExecutor(t *testing.T) {
	const n = 20
	feed := make(chan []Values)
	entered := make(chan struct{})
	release := make(chan struct{})
	topo, err := NewTopology().
		Spout("src", 1, feedSpout(feed)).
		Bolt("work", 4, func(int) Bolt {
			return BoltFunc(func(tu Tuple, _ Emit) error {
				if tu.Values[0].(int) == 0 {
					close(entered)
					<-release
					return nil
				}
				time.Sleep(slowService) // workload: modelled service
				return nil
			})
		}).
		Shuffle("src", "work").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"work": 2})
	closeAtCleanup(t, release)
	primeSlow(t, run, feed, 2)
	base, _ := run.Completions()
	feed <- []Values{{0}}
	<-entered
	for i := 1; i <= n; i++ {
		feed <- []Values{{i}}
		waitCompleted(t, run, base+int64(i)) // the blocked tuple is not among them
	}
	if got := run.QueueLengths()["work"]; got != 1 {
		t.Errorf("backlog with one tuple in service = %d, want 1", got)
	}
	close(release)
	waitCompleted(t, run, base+n+1)
}

// TestEmitBatchSpreadsOverIdleExecutors: the counters an emitter reads do
// not move until it pushes, so a batch routed on them alone would land on
// whichever executor looked emptiest at its first tuple. Counting what the
// open scope has already buffered deals it out evenly.
func TestEmitBatchSpreadsOverIdleExecutors(t *testing.T) {
	const k, batch = 4, 64
	feed := make(chan []Values)
	gate := make(chan struct{})
	topo, err := NewTopology().
		Spout("src", 1, feedSpout(feed)).
		Bolt("work", 16, func(int) Bolt {
			return BoltFunc(func(tu Tuple, _ Emit) error {
				if tu.Values[0].(int) >= 0 {
					<-gate // hold the batch in place while the test counts it
				}
				time.Sleep(slowService) // workload: modelled service
				return nil
			})
		}).
		Shuffle("src", "work").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"work": k})
	closeAtCleanup(t, gate)
	primeSlow(t, run, feed, k)
	base, _ := run.Completions()
	vs := make([]Values, batch)
	for i := range vs {
		vs[i] = Values{i}
	}
	feed <- vs
	feed <- []Values{{-1}} // the spout took this one only after EmitBatch returned
	for i, ex := range run.bolts[0].route.Load().execs {
		// The follow-up tuple lands on one of them.
		if got := ex.q.outstanding(); got < batch/k || got > batch/k+1 {
			t.Errorf("executor %d holds %d of the batch of %d, want %d", i, got, batch, batch/k)
		}
	}
	close(gate)
	waitCompleted(t, run, base+batch+1)
}

// exclusiveBolt keeps unsynchronised per-task state: the race detector
// flags two executors inside one task instance, and the entry flag catches
// the same without it. It forwards each tuple it serves, and, when hits is
// set, counts per integer id how often its stage served it.
type exclusiveBolt struct {
	inside   atomic.Bool
	seen     int // deliberately unguarded
	overlaps *atomic.Int64
	hits     []atomic.Int32
}

func (b *exclusiveBolt) Process(tu Tuple, emit Emit) error {
	if !b.inside.CompareAndSwap(false, true) {
		b.overlaps.Add(1)
		return nil
	}
	b.seen++
	if b.hits != nil {
		b.hits[tu.Values[0].(int)].Add(1)
	}
	time.Sleep(slowService) // workload: modelled service
	b.inside.Store(false)
	emit(tu.Values)
	return nil
}

// completionsReach waits until the run has completed want roots, or until
// stop closes; it reports which.
func completionsReach(run *Run, want int64, stop <-chan struct{}) bool {
	for {
		if n, _ := run.Completions(); n >= want {
			return true
		}
		select {
		case <-stop:
			return false
		default:
			runtime.Gosched()
		}
	}
}

// TestShuffleStormTaskExclusive routes backlog-steered shuffle traffic at
// tasks with unguarded state while the executor set is rebalanced and
// crashed underneath it: choosing the executor first and a task it owns
// second must never put two executors inside one task instance.
func TestShuffleStormTaskExclusive(t *testing.T) {
	const n, tasks = 1500, 12
	var overlaps atomic.Int64
	bolts := make([]*exclusiveBolt, tasks)
	topo, err := NewTopology().
		Spout("src", 2, func(int) Spout {
			return spoutFunc(func(ctx SpoutContext) error {
				for i := 0; i < n/2; i++ {
					select {
					case <-ctx.Done():
						return nil
					default:
					}
					ctx.Emit(Values{i})
					if i%8 == 0 {
						time.Sleep(slowService) // workload: the spout's pacing
					}
				}
				<-ctx.Done()
				return nil
			})
		}).
		Bolt("work", tasks, func(task int) Bolt {
			bolts[task] = &exclusiveBolt{overlaps: &overlaps}
			return bolts[task]
		}).
		Shuffle("src", "work").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"work": 3})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			if i%3 == 0 {
				if err := run.Rebalance(map[string]int{"work": 2 + i%5}); err != nil {
					t.Errorf("Rebalance: %v", err)
					return
				}
			} else if _, err := run.FailExecutor("work", i%2); err != nil {
				t.Errorf("FailExecutor: %v", err)
				return
			}
			base, _ := run.Completions()
			if !completionsReach(run, base+15, stop) {
				return
			}
		}
	}()
	waitCompleted(t, run, n)
	close(stop)
	wg.Wait()
	if got := overlaps.Load(); got != 0 {
		t.Errorf("%d tuples entered a task instance another executor was inside", got)
	}
	if err := run.Stop(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range bolts {
		total += b.seen
	}
	// At-least-once: a crash replays, it never drops.
	if total < n {
		t.Errorf("tasks saw %d tuples, want at least %d", total, n)
	}
	assertSettled(t, run)
}

// TestShuffleRouteZeroAllocs guards the backlog-steered route: the engine's
// hot path allocates nothing per tuple on the cursor route (the throughput
// benchmark reports it) and must not start to on this one.
func TestShuffleRouteZeroAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	sp := &lockstepSpout{step: make(chan struct{})}
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return sp }).
		Bolt("sink", 8, func(int) Bolt {
			// Spinning past the handoff cost makes every service sample
			// vote the flag slow, so it stays as set here: the slow route's
			// cost and nothing else.
			return BoltFunc(func(Tuple, Emit) error {
				for start := time.Now(); time.Since(start) < 2*handoffCost; {
				}
				return nil
			})
		}).
		Shuffle("src", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"sink": 4})
	run.bolts[0].slow.Store(true)
	var done int64
	allocs := testing.AllocsPerRun(2000, func() {
		sp.step <- struct{}{}
		done++
		for n, _ := run.Completions(); n < done; n, _ = run.Completions() {
			runtime.Gosched()
		}
	})
	if allocs != 0 {
		t.Errorf("an Emit into a slow-flagged k=4 bolt costs %.2f allocs, want 0", allocs)
	}
	if !run.bolts[0].slow.Load() {
		t.Error("the bolt left the slow route during the measurement")
	}
}

// assertSettled checks the invariant the routing signal rests on: with no
// root pending, no executor of the current route tables has anything
// outstanding. The count drops before the ack that can complete a root, so
// there is nothing to wait for.
func assertSettled(t *testing.T, run *Run) {
	t.Helper()
	if p := run.roots.pending(); p != 0 {
		t.Fatalf("%d roots still pending", p)
	}
	for _, br := range run.bolts {
		for i, ex := range br.route.Load().execs {
			if got := ex.q.outstanding(); got != 0 {
				t.Errorf("bolt %q executor %d: outstanding = %d with no root pending", br.spec.name, i, got)
			}
		}
	}
}

// TestOutstandingBalances drives every path that moves a tuple on or off an
// executor's books — a crash replay, a remote bind and its retire, a lost
// result frame and the self-heal behind it, a failed send, a seize at the
// queue itself, a rebalance, a stop — and checks the count returns to zero
// each time the topology drains. The live cases act at steps of the
// completion count, so each lands mid-stream without a timer.
func TestOutstandingBalances(t *testing.T) {
	t.Run("seize", func(t *testing.T) {
		q := newQueue()
		q.pushBatch([]queueItem{{task: 1}, {task: 2}, {task: 3}})
		if _, _, n, _ := q.popAll(nil); n != 3 || q.outstanding() != 3 {
			t.Fatalf("popped %d, outstanding %d: a popped batch is still outstanding", n, q.outstanding())
		}
		q.pushBatch([]queueItem{{task: 4}, {task: 5}})
		if got := len(q.seize()); got != 2 || q.outstanding() != 3 {
			t.Fatalf("captured %d, outstanding %d: the seized backlog must leave the books, the batch in service stay", got, q.outstanding())
		}
		q.served(3)
		if q.outstanding() != 0 {
			t.Errorf("outstanding = %d after the consumer settled its batch", q.outstanding())
		}
		if q.pushBatch([]queueItem{{task: 6}}) || q.outstanding() != 0 {
			t.Errorf("a push refused by a closed queue was counted: outstanding = %d", q.outstanding())
		}
	})

	const n = 600
	slowFan := func(int) Bolt {
		return BoltFunc(func(tu Tuple, emit Emit) error {
			time.Sleep(20 * time.Microsecond) // workload: modelled service
			for j := 0; j < 3; j++ {
				emit(Values{tu.Values[0], j})
			}
			return nil
		})
	}
	start := func(t *testing.T) (*Run, *collectBolt) {
		collector, factory := sharedCollector()
		topo, err := NewTopology().
			Spout("src", 1, func(int) Spout { return &trickleSpout{n: n, stride: 50, pause: time.Millisecond} }).
			Bolt("fan", 8, slowFan).
			Bolt("sink", 8, factory).
			Shuffle("src", "fan").
			Shuffle("fan", "sink").
			Build()
		if err != nil {
			t.Fatal(err)
		}
		return startTopo(t, topo, map[string]int{"fan": 2, "sink": 4}), collector
	}
	drained := func(t *testing.T, run *Run, collector *collectBolt) {
		t.Helper()
		waitCompleted(t, run, n)
		if got := collector.count(); got < 3*n {
			t.Errorf("sink saw %d tuples, want at least %d", got, 3*n)
		}
		assertSettled(t, run)
	}

	t.Run("FailExecutor", func(t *testing.T) {
		run, collector := start(t)
		for i := 0; i < 8; i++ {
			waitCompleted(t, run, int64(i)*n/16)
			if _, err := run.FailExecutor("fan", i%2); err != nil {
				t.Fatal(err)
			}
			if _, err := run.FailExecutor("sink", i%4); err != nil {
				t.Fatal(err)
			}
		}
		drained(t, run, collector)
		if run.Replayed() == 0 {
			t.Error("nothing was replayed: the crash path was not driven")
		}
	})
	t.Run("BindExecutor", func(t *testing.T) {
		run, collector := start(t)
		remote := newFakeRemote(3)
		for i := 0; i < 6; i++ {
			waitCompleted(t, run, int64(i)*n/12)
			var to RemoteExecutor
			if i%2 == 0 {
				to = remote
			}
			if err := run.BindExecutor("fan", 0, to); err != nil {
				t.Fatal(err)
			}
		}
		drained(t, run, collector)
		if _, items := remote.stats(); items == 0 {
			t.Error("the remote binding carried nothing")
		}
	})
	t.Run("result lost", func(t *testing.T) {
		run, collector := start(t)
		remote := newFakeRemote(3)
		remote.resultErrAfter = 1 // the pinned batch replays, then the self-heal
		if err := run.BindExecutor("fan", 0, remote); err != nil {
			t.Fatal(err)
		}
		drained(t, run, collector)
		waitRemoteUnbound(t, run, "fan")
		assertSettled(t, run)
	})
	t.Run("send failed", func(t *testing.T) {
		run, collector := start(t)
		remote := newFakeRemote(3)
		remote.sendErrAfter = 1 // strandPin + strandRing, then the self-heal
		if err := run.BindExecutor("fan", 0, remote); err != nil {
			t.Fatal(err)
		}
		drained(t, run, collector)
		waitRemoteUnbound(t, run, "fan")
		assertSettled(t, run)
	})
	t.Run("Rebalance", func(t *testing.T) {
		run, collector := start(t)
		for i, alloc := range []map[string]int{{"fan": 4, "sink": 2}, {"fan": 1}, {"fan": 3, "sink": 8}} {
			waitCompleted(t, run, int64(i)*n/6)
			if err := run.Rebalance(alloc); err != nil {
				t.Fatal(err)
			}
		}
		drained(t, run, collector)
	})
	t.Run("Stop", func(t *testing.T) {
		run, _ := start(t)
		waitCompleted(t, run, n/4) // stop it mid-stream
		if err := run.Stop(); err != nil {
			t.Fatal(err)
		}
		assertSettled(t, run)
	})
}
