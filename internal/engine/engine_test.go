package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// burstSpout emits n tuples as fast as possible, then idles until stopped.
type burstSpout struct {
	n      int
	values func(i int) Values
}

func (s *burstSpout) Run(ctx SpoutContext) error {
	for i := 0; i < s.n; i++ {
		select {
		case <-ctx.Done():
			return nil
		default:
		}
		v := Values{i}
		if s.values != nil {
			v = s.values(i)
		}
		ctx.Emit(v)
	}
	<-ctx.Done()
	return nil
}

// collectBolt records every value it sees, concurrency-safely.
type collectBolt struct {
	mu   sync.Mutex
	seen []Values
}

func (b *collectBolt) Process(t Tuple, _ Emit) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seen = append(b.seen, t.Values)
	return nil
}

func (b *collectBolt) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.seen)
}

// sharedCollector hands the same collector to every task so totals are easy.
func sharedCollector() (*collectBolt, BoltFactory) {
	c := &collectBolt{}
	return c, func(int) Bolt { return c }
}

func startTopo(t *testing.T, topo *Topology, alloc map[string]int) *Run {
	t.Helper()
	run, err := topo.Start(RunConfig{Alloc: alloc, QuiesceTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = run.Stop() })
	return run
}

func waitCompleted(t *testing.T, run *Run, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, _ := run.Completions()
		if n >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d of %d tuples completed", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBuilderValidation(t *testing.T) {
	okSpout := func(int) Spout { return &burstSpout{n: 0} }
	okBolt := func(int) Bolt { return BoltFunc(func(Tuple, Emit) error { return nil }) }
	tests := []struct {
		name  string
		build func() (*Topology, error)
	}{
		{"no spout", func() (*Topology, error) {
			return NewTopology().Bolt("b", 1, okBolt).Build()
		}},
		{"no bolt", func() (*Topology, error) {
			return NewTopology().Spout("s", 1, okSpout).Build()
		}},
		{"duplicate name", func() (*Topology, error) {
			return NewTopology().Spout("x", 1, okSpout).Bolt("x", 1, okBolt).Build()
		}},
		{"empty name", func() (*Topology, error) {
			return NewTopology().Spout("", 1, okSpout).Build()
		}},
		{"zero instances", func() (*Topology, error) {
			return NewTopology().Spout("s", 0, okSpout).Build()
		}},
		{"zero tasks", func() (*Topology, error) {
			return NewTopology().Spout("s", 1, okSpout).Bolt("b", 0, okBolt).Build()
		}},
		{"nil bolt factory", func() (*Topology, error) {
			return NewTopology().Spout("s", 1, okSpout).Bolt("b", 1, nil).Build()
		}},
		{"edge to unknown", func() (*Topology, error) {
			return NewTopology().Spout("s", 1, okSpout).Bolt("b", 1, okBolt).
				Shuffle("s", "zzz").Build()
		}},
		{"edge from unknown", func() (*Topology, error) {
			return NewTopology().Spout("s", 1, okSpout).Bolt("b", 1, okBolt).
				Shuffle("zzz", "b").Build()
		}},
		{"edge into spout", func() (*Topology, error) {
			return NewTopology().Spout("s", 1, okSpout).Bolt("b", 1, okBolt).
				Shuffle("b", "s").Build()
		}},
		{"nil fields key", func() (*Topology, error) {
			return NewTopology().Spout("s", 1, okSpout).Bolt("b", 1, okBolt).
				Fields("s", "b", nil).Build()
		}},
		{"unreachable bolt", func() (*Topology, error) {
			return NewTopology().Spout("s", 1, okSpout).
				Bolt("a", 1, okBolt).Bolt("orphan", 1, okBolt).
				Shuffle("s", "a").Build()
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.build(); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestAllTuplesProcessedAndAcked(t *testing.T) {
	const n = 500
	collector, factory := sharedCollector()
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &burstSpout{n: n} }).
		Bolt("sink", 8, factory).
		Shuffle("src", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"sink": 4})
	waitCompleted(t, run, n)
	if got := collector.count(); got != n {
		t.Errorf("processed %d tuples, want %d", got, n)
	}
	count, mean := run.Completions()
	if count != n {
		t.Errorf("completions = %d, want %d", count, n)
	}
	if mean <= 0 {
		t.Errorf("mean sojourn = %v, want > 0", mean)
	}
}

func TestChainWithFanOut(t *testing.T) {
	// Each input emits 3 children to the second bolt: sink sees 3n, and
	// every root still completes exactly once.
	const n = 200
	collector, factory := sharedCollector()
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &burstSpout{n: n} }).
		Bolt("fan", 4, func(int) Bolt {
			return BoltFunc(func(t Tuple, emit Emit) error {
				for j := 0; j < 3; j++ {
					emit(Values{t.Values[0], j})
				}
				return nil
			})
		}).
		Bolt("sink", 4, factory).
		Shuffle("src", "fan").
		Shuffle("fan", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"fan": 2, "sink": 2})
	waitCompleted(t, run, n)
	if got := collector.count(); got != 3*n {
		t.Errorf("sink saw %d tuples, want %d", got, 3*n)
	}
}

func TestFieldsGroupingRoutesByKey(t *testing.T) {
	// With fields grouping, every tuple with the same key must be handled
	// by the same task.
	const n = 400
	var mu sync.Mutex
	keyToTask := make(map[int]int)
	conflict := false
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout {
			return &burstSpout{n: n, values: func(i int) Values { return Values{i % 10} }}
		}).
		Bolt("sink", 8, func(task int) Bolt {
			return BoltFunc(func(t Tuple, _ Emit) error {
				k := t.Values[0].(int)
				mu.Lock()
				defer mu.Unlock()
				if prev, ok := keyToTask[k]; ok && prev != task {
					conflict = true
				}
				keyToTask[k] = task
				return nil
			})
		}).
		Fields("src", "sink", func(v Values) uint64 { return uint64(v[0].(int)) }).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"sink": 4})
	waitCompleted(t, run, n)
	mu.Lock()
	defer mu.Unlock()
	if conflict {
		t.Error("fields grouping sent one key to multiple tasks")
	}
	if len(keyToTask) != 10 {
		t.Errorf("saw %d distinct keys, want 10", len(keyToTask))
	}
}

// loopBolt forwards a decrementing hop counter back to itself.
type loopBolt struct{}

func (loopBolt) Process(t Tuple, emit Emit) error {
	hops := t.Values[0].(int)
	if hops > 0 {
		emit(Values{hops - 1})
	}
	return nil
}

func TestLoopTopologyCompletes(t *testing.T) {
	// Every tuple cycles through the bolt 4 times (hops=3 re-emissions);
	// trees must still complete.
	const n = 100
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout {
			return &burstSpout{n: n, values: func(int) Values { return Values{3} }}
		}).
		Bolt("looper", 4, func(int) Bolt { return loopBolt{} }).
		Shuffle("src", "looper").
		Shuffle("looper", "looper").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"looper": 2})
	waitCompleted(t, run, n)
	rep := run.DrainInterval()
	// 4 visits per external tuple.
	if got := rep.Ops[0].Served; got != 4*n {
		t.Errorf("looper served %d, want %d", got, 4*n)
	}
}

func TestStatefulTasksSurviveRebalance(t *testing.T) {
	// Task-local counters must keep their values across a rebalance
	// because instances stay bound to tasks, not executors.
	const tasks = 6
	var stage1 [tasks]int64
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &pacedSpout{period: time.Millisecond} }).
		Bolt("count", tasks, func(task int) Bolt {
			var local int64
			return BoltFunc(func(Tuple, Emit) error {
				local++
				atomic.StoreInt64(&stage1[task], local)
				return nil
			})
		}).
		Shuffle("src", "count").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"count": 2})
	waitCompleted(t, run, 100)
	var before int64
	for i := range stage1 {
		before += atomic.LoadInt64(&stage1[i])
	}
	if err := run.Rebalance(map[string]int{"count": 5}); err != nil {
		t.Fatal(err)
	}
	if got := run.Allocation()["count"]; got != 5 {
		t.Errorf("allocation after rebalance = %d, want 5", got)
	}
	waitCompleted(t, run, before+100)
	var after int64
	for i := range stage1 {
		after += atomic.LoadInt64(&stage1[i])
	}
	if after <= before {
		t.Errorf("counters did not advance after rebalance: %d -> %d", before, after)
	}
}

// pacedSpout emits forever at a fixed period.
type pacedSpout struct {
	period time.Duration
}

func (s *pacedSpout) Run(ctx SpoutContext) error {
	tick := time.NewTicker(s.period)
	defer tick.Stop()
	i := 0
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
			ctx.Emit(Values{i})
			i++
		}
	}
}

func TestRebalanceValidation(t *testing.T) {
	collector, factory := sharedCollector()
	_ = collector
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &burstSpout{n: 10} }).
		Bolt("sink", 4, factory).
		Shuffle("src", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"sink": 2})
	waitCompleted(t, run, 10)
	if err := run.Rebalance(map[string]int{"sink": 9}); err == nil {
		t.Error("rebalance above task count should fail")
	}
	if err := run.Rebalance(map[string]int{"sink": 0}); err == nil {
		t.Error("rebalance to zero should fail")
	}
	if err := run.Rebalance(map[string]int{"sink": 2}); err != nil {
		t.Errorf("no-op rebalance should succeed: %v", err)
	}
}

func TestStartValidation(t *testing.T) {
	_, factory := sharedCollector()
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &burstSpout{n: 1} }).
		Bolt("sink", 4, factory).
		Shuffle("src", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Start(RunConfig{}); err == nil {
		t.Error("missing allocation should fail")
	}
	if _, err := topo.Start(RunConfig{Alloc: map[string]int{"sink": 5}}); err == nil {
		t.Error("allocation above tasks should fail")
	}
	if _, err := topo.Start(RunConfig{Alloc: map[string]int{"sink": 0}}); err == nil {
		t.Error("zero allocation should fail")
	}
}

func TestDrainIntervalCounters(t *testing.T) {
	const n = 300
	_, factory := sharedCollector()
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &burstSpout{n: n} }).
		Bolt("sink", 4, factory).
		Shuffle("src", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"sink": 2})
	waitCompleted(t, run, n)
	rep := run.DrainInterval()
	if rep.ExternalArrivals != n {
		t.Errorf("external arrivals = %d, want %d", rep.ExternalArrivals, n)
	}
	if rep.Ops[0].Arrivals != n || rep.Ops[0].Served != n {
		t.Errorf("op counters = %+v, want %d arrivals/served", rep.Ops[0], n)
	}
	if rep.SojournCount != n || rep.SojournTotal <= 0 {
		t.Errorf("sojourn counters = %d/%v", rep.SojournCount, rep.SojournTotal)
	}
	// Second drain is empty.
	rep2 := run.DrainInterval()
	if rep2.ExternalArrivals != 0 || rep2.Ops[0].Served != 0 || rep2.SojournCount != 0 {
		t.Errorf("second drain not empty: %+v", rep2)
	}
}

func TestBoltErrorsAreCountedNotFatal(t *testing.T) {
	const n = 100
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &burstSpout{n: n} }).
		Bolt("flaky", 2, func(int) Bolt {
			return BoltFunc(func(t Tuple, _ Emit) error {
				if t.Values[0].(int)%2 == 0 {
					return fmt.Errorf("even tuple %v", t.Values[0])
				}
				return nil
			})
		}).
		Shuffle("src", "flaky").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"flaky": 2})
	waitCompleted(t, run, n)
	count, last := run.Errors("flaky")
	if count != n/2 {
		t.Errorf("error count = %d, want %d", count, n/2)
	}
	if last == nil {
		t.Error("last error should be retained")
	}
	if _, err := run.Errors("nope"); err == nil {
		t.Error("unknown bolt should error")
	}
}

func TestStopIsIdempotentAndFinal(t *testing.T) {
	_, factory := sharedCollector()
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &pacedSpout{period: time.Millisecond} }).
		Bolt("sink", 2, factory).
		Shuffle("src", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := topo.Start(RunConfig{Alloc: map[string]int{"sink": 1}})
	if err != nil {
		t.Fatal(err)
	}
	waitCompleted(t, run, 10)
	if err := run.Stop(); err != nil {
		t.Fatalf("first stop: %v", err)
	}
	if err := run.Stop(); !errors.Is(err, ErrStopped) {
		t.Errorf("second stop = %v, want ErrStopped", err)
	}
	if err := run.Rebalance(map[string]int{"sink": 2}); !errors.Is(err, ErrStopped) {
		t.Errorf("rebalance after stop = %v, want ErrStopped", err)
	}
}

// popTasks takes the whole ring in one popAll — the queue's only consumer
// call — and returns the queued task ids in FIFO order; ok is false once
// the queue is closed and empty.
func popTasks(q *queue) (tasks []int, ok bool) {
	ring, head, n, ok := q.popAll(nil)
	for i := 0; i < n; i++ {
		tasks = append(tasks, ring[(head+i)&(len(ring)-1)].task)
	}
	return tasks, ok
}

func TestQueueBasics(t *testing.T) {
	q := newQueue()
	if !q.push(queueItem{task: 1}) {
		t.Fatal("push on open queue failed")
	}
	if got := q.outstanding(); got != 1 {
		t.Errorf("outstanding = %d, want 1", got)
	}
	if got, ok := popTasks(q); !ok || !slices.Equal(got, []int{1}) {
		t.Errorf("popAll = (%v, %v), want [1]", got, ok)
	}
	q.close()
	if q.push(queueItem{}) {
		t.Error("push after close should fail")
	}
	if q.pushBatch([]queueItem{{task: 2}, {task: 3}}) {
		t.Error("pushBatch after close should fail")
	}
	if got, ok := popTasks(q); ok {
		t.Errorf("popAll on closed empty queue = (%v, true), should report closed", got)
	}
}

func TestQueueDrainsAfterClose(t *testing.T) {
	q := newQueue()
	q.push(queueItem{task: 1})
	q.pushBatch([]queueItem{{task: 2}, {task: 3}})
	q.close()
	if got, ok := popTasks(q); !ok || !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("popAll after close = (%v, %v), want the backlog [1 2 3]", got, ok)
	}
	if _, ok := popTasks(q); ok {
		t.Error("queue should be exhausted")
	}
}

// TestQueueConcurrentProducersConsumers is the queue's real contract: many
// producers (single pushes and batches) against the one consumer an
// executor is, which must see every item exactly once and each
// producer's items in the order that producer pushed them.
func TestQueueConcurrentProducersConsumers(t *testing.T) {
	q := newQueue()
	const producers, per = 4, 1000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i += 4 {
				base := p*per + i
				q.push(queueItem{task: base})
				q.pushBatch([]queueItem{{task: base + 1}, {task: base + 2}, {task: base + 3}})
			}
		}()
	}
	go func() {
		wg.Wait()
		q.close()
	}()
	consumed := 0
	next := [producers]int{}
	for {
		tasks, ok := popTasks(q)
		if !ok {
			break
		}
		for _, task := range tasks {
			p, i := task/per, task%per
			if i != next[p] {
				t.Fatalf("producer %d: got item %d, want %d (per-producer FIFO violated)", p, i, next[p])
			}
			next[p]++
			consumed++
		}
	}
	if consumed != producers*per {
		t.Errorf("consumed %d, want %d", consumed, producers*per)
	}
}

// TestRebalanceStopsOnlyChangedBolts: a rebalance waits for the executors
// it retires and for nothing else. Rebalance({a: 2}) cannot finish while
// a's old executor sits inside a gated Process, yet the independent chain
// net → b, fed through a NetworkSpout, keeps completing roots meanwhile.
func TestRebalanceStopsOnlyChangedBolts(t *testing.T) {
	feed := make(chan []Values)
	net := newChanSource(1)
	entered, release := make(chan struct{}), make(chan struct{})
	topo, err := NewTopology().
		Spout("src", 1, feedSpout(feed)).
		Spout("net", 1, func(int) Spout { return &NetworkSpout{Source: net} }).
		Bolt("a", 4, func(int) Bolt {
			return BoltFunc(func(Tuple, Emit) error {
				close(entered)
				<-release
				return nil
			})
		}).
		Bolt("b", 4, func(int) Bolt { return BoltFunc(func(Tuple, Emit) error { return nil }) }).
		Shuffle("src", "a").
		Shuffle("net", "b").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"a": 1, "b": 1})
	closeAtCleanup(t, release)
	feed <- []Values{{0}}
	<-entered
	rebalanced := make(chan error, 1)
	go func() { rebalanced <- run.Rebalance(map[string]int{"a": 2}) }()
	for i := int64(1); i <= 50; i++ {
		net.ch <- Values{i}
		waitCompleted(t, run, i) // a's gated root is not among them
	}
	select {
	case err := <-rebalanced:
		t.Fatalf("Rebalance returned (%v) while a's old executor was inside Process", err)
	default:
	}
	close(release)
	if err := <-rebalanced; err != nil {
		t.Fatal(err)
	}
	if got := run.Allocation()["a"]; got != 2 {
		t.Errorf("allocation of a = %d, want 2", got)
	}
	waitCompleted(t, run, 51)
}

// TestRebalanceStormServesEachOnce rebalances both bolts of a chain, and
// does nothing else, under continuous load. A rebalance retires executors,
// it does not fail them: each id is served exactly once at each bolt,
// nothing counts as replayed or failed, and no two executors are ever
// inside one task instance.
func TestRebalanceStormServesEachOnce(t *testing.T) {
	const n, tasks = 1000, 8
	var overlaps atomic.Int64
	hits := [2][]atomic.Int32{make([]atomic.Int32, n), make([]atomic.Int32, n)}
	stage := func(s int) BoltFactory {
		return func(int) Bolt { return &exclusiveBolt{overlaps: &overlaps, hits: hits[s]} }
	}
	topo, err := NewTopology().
		Spout("src", 2, func(inst int) Spout {
			return &funcSpout{fn: func(ctx SpoutContext) error {
				tick := time.NewTicker(500 * time.Microsecond)
				defer tick.Stop()
				for id := inst * n / 2; id < (inst+1)*n/2; id++ {
					select {
					case <-ctx.Done():
						return nil
					case <-tick.C:
					}
					ctx.Emit(Values{id})
				}
				<-ctx.Done()
				return nil
			}}
		}).
		Bolt("a", tasks, stage(0)).
		Bolt("b", tasks, stage(1)).
		Shuffle("src", "a").
		Shuffle("a", "b").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"a": 2, "b": 2})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			if err := run.Rebalance(map[string]int{"a": 2 + i%5, "b": 2 + (i+2)%5}); err != nil {
				t.Errorf("Rebalance: %v", err)
				return
			}
			base, _ := run.Completions()
			if !completionsReach(run, base+10, stop) {
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
	for s, bolt := range []string{"a", "b"} {
		for id := range hits[s] {
			if got := hits[s][id].Load(); got != 1 {
				t.Errorf("bolt %s served id %d %d times, want once", bolt, id, got)
				break
			}
		}
	}
	if run.Replayed() != 0 || run.ExecutorFailures() != 0 {
		t.Errorf("Replayed = %d, ExecutorFailures = %d: a rebalance counted as a failure", run.Replayed(), run.ExecutorFailures())
	}
	if err := run.Stop(); err != nil {
		t.Fatal(err)
	}
	assertSettled(t, run)
}

func TestBoltNames(t *testing.T) {
	_, factory := sharedCollector()
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &burstSpout{n: 1} }).
		Bolt("b1", 1, factory).
		Bolt("b2", 1, factory).
		Shuffle("src", "b1").
		Shuffle("b1", "b2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	names := topo.BoltNames()
	if len(names) != 2 || names[0] != "b1" || names[1] != "b2" {
		t.Errorf("BoltNames = %v", names)
	}
}

func TestLoadSkewDetectsHotKey(t *testing.T) {
	// Shuffle spreads evenly (skew ~1); fields grouping with one hot key
	// concentrates load on a single task's executor (skew >> 1).
	const n = 600
	_, factory := sharedCollector()
	build := func(hot bool) *Run {
		b := NewTopology().
			Spout("src", 1, func(int) Spout {
				return &burstSpout{n: n, values: func(i int) Values {
					if hot {
						return Values{0} // every tuple shares one key
					}
					return Values{i}
				}}
			}).
			Bolt("sink", 8, factory)
		if hot {
			b.Fields("src", "sink", func(v Values) uint64 { return uint64(v[0].(int)) })
		} else {
			b.Shuffle("src", "sink")
		}
		topo, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return startTopo(t, topo, map[string]int{"sink": 4})
	}

	balanced := build(false)
	waitCompleted(t, balanced, n)
	skewBalanced, err := balanced.LoadSkew("sink")
	if err != nil {
		t.Fatal(err)
	}
	if skewBalanced > 1.3 {
		t.Errorf("shuffle skew = %.2f, want near 1", skewBalanced)
	}

	skewed := build(true)
	waitCompleted(t, skewed, n)
	skewHot, err := skewed.LoadSkew("sink")
	if err != nil {
		t.Fatal(err)
	}
	if skewHot < 3.5 { // all load on 1 of 4 executors -> skew 4
		t.Errorf("hot-key skew = %.2f, want ~4", skewHot)
	}
	if _, err := skewed.LoadSkew("nope"); err == nil {
		t.Error("unknown bolt should error")
	}
}
