package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// splitterBolt emits even values on the default stream and odd values on
// the "side" stream.
type splitterBolt struct{}

func (splitterBolt) Process(t Tuple, emit Emit) error {
	v := t.Values[0].(int)
	if v%2 == 0 {
		emit(Values{v})
	} else {
		emit.To("side")(Values{v})
	}
	return nil
}

func TestNamedStreamRouting(t *testing.T) {
	const n = 200
	var evens, odds atomic.Int64
	var wrongEven, wrongOdd atomic.Int64
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &burstSpout{n: n} }).
		Bolt("split", 4, func(int) Bolt { return splitterBolt{} }).
		Bolt("evensink", 2, func(int) Bolt {
			return BoltFunc(func(t Tuple, _ Emit) error {
				evens.Add(1)
				if t.Values[0].(int)%2 != 0 {
					wrongEven.Add(1)
				}
				return nil
			})
		}).
		Bolt("oddsink", 2, func(int) Bolt {
			return BoltFunc(func(t Tuple, _ Emit) error {
				odds.Add(1)
				if t.Values[0].(int)%2 != 1 {
					wrongOdd.Add(1)
				}
				return nil
			})
		}).
		Shuffle("src", "split").
		Shuffle("split", "evensink").          // default stream
		ShuffleOn("side", "split", "oddsink"). // named stream
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"split": 2, "evensink": 1, "oddsink": 1})
	waitCompleted(t, run, n)
	if evens.Load() != n/2 || odds.Load() != n/2 {
		t.Errorf("evens/odds = %d/%d, want %d each", evens.Load(), odds.Load(), n/2)
	}
	if wrongEven.Load() != 0 || wrongOdd.Load() != 0 {
		t.Errorf("misrouted tuples: %d to evensink, %d to oddsink", wrongEven.Load(), wrongOdd.Load())
	}
}

func TestNamedStreamWithoutSubscriberDropsCleanly(t *testing.T) {
	// Emissions on a stream nobody subscribed to must not wedge the tree.
	const n = 50
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &burstSpout{n: n} }).
		Bolt("emitter", 2, func(int) Bolt {
			return BoltFunc(func(t Tuple, emit Emit) error {
				emit.To("nowhere")(Values{t.Values[0]})
				return nil
			})
		}).
		Shuffle("src", "emitter").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"emitter": 1})
	waitCompleted(t, run, n)
}

func TestSpoutCannotUseNamedStreams(t *testing.T) {
	okSpout := func(int) Spout { return &burstSpout{n: 0} }
	okBolt := func(int) Bolt { return BoltFunc(func(Tuple, Emit) error { return nil }) }
	_, err := NewTopology().
		Spout("s", 1, okSpout).
		Bolt("b", 1, okBolt).
		ShuffleOn("stream", "s", "b").
		Build()
	if err == nil {
		t.Error("spout edge on a named stream should be rejected")
	}
}

// atomicMap tracks key->task with conflict detection.
type atomicMap struct {
	mu       sync.Mutex
	keyTask  map[int]int
	conflict bool
}

func (m *atomicMap) record(key, task int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.keyTask == nil {
		m.keyTask = make(map[int]int)
	}
	if prev, ok := m.keyTask[key]; ok && prev != task {
		m.conflict = true
	}
	m.keyTask[key] = task
}

func (m *atomicMap) conflicted() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.conflict
}

// failingSpout errors immediately.
type failingSpout struct{}

func (failingSpout) Run(SpoutContext) error { return errors.New("source disconnected") }

func TestSpoutFailureIsIsolated(t *testing.T) {
	// One of two spout instances dies; the topology keeps processing from
	// the survivor and the failure is reported.
	collector, factory := sharedCollector()
	_ = collector
	topo, err := NewTopology().
		Spout("src", 2, func(instance int) Spout {
			if instance == 1 {
				return failingSpout{}
			}
			return &pacedSpout{period: time.Millisecond}
		}).
		Bolt("sink", 2, factory).
		Shuffle("src", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"sink": 1})
	waitCompleted(t, run, 50) // survivor still delivers
	count, last := run.SpoutErrors()
	if count != 1 {
		t.Errorf("spout error count = %d, want 1", count)
	}
	if last == nil {
		t.Error("spout failure not retained")
	}
}
