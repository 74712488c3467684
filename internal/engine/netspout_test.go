package engine

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/obs"
)

// chanSource is a minimal BatchSource over a channel, for spout tests.
type chanSource struct {
	ch     chan Values
	closed sync.Once
}

func newChanSource(buf int) *chanSource { return &chanSource{ch: make(chan Values, buf)} }

func (s *chanSource) PopBatch(done <-chan struct{}, buf []Values) ([]Values, bool) {
	max := cap(buf)
	if max == 0 {
		max = 1
		buf = make([]Values, 0, 1)
	}
	select {
	case v, ok := <-s.ch:
		if !ok {
			return nil, false
		}
		out := append(buf[:0], v)
		for len(out) < max {
			select {
			case v, ok := <-s.ch:
				if !ok {
					return out, true
				}
				out = append(out, v)
			default:
				return out, true
			}
		}
		return out, true
	case <-done:
		return nil, false
	}
}

func (s *chanSource) close() { s.closed.Do(func() { close(s.ch) }) }

// TestNetworkSpoutDeliversBatches: every payload pushed into the source
// reaches the topology exactly once, batches flow through EmitBatch, and
// the spout exits when the source closes.
func TestNetworkSpoutDeliversBatches(t *testing.T) {
	src := newChanSource(1024)
	var processed atomic.Int64
	topo, err := NewTopology().
		Spout("net", 1, func(int) Spout { return &NetworkSpout{Source: src, MaxBatch: 16} }).
		Bolt("count", 4, func(int) Bolt {
			return BoltFunc(func(Tuple, Emit) error {
				processed.Add(1)
				return nil
			})
		}).
		Shuffle("net", "count").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := topo.Start(RunConfig{Alloc: map[string]int{"count": 2}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		src.ch <- Values{i}
	}
	src.close()
	waitCompleted(t, run, n)
	if err := run.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := processed.Load(); got != n {
		t.Fatalf("bolt processed %d tuples, want %d", got, n)
	}
}

// ackedChanSource wraps chanSource into an AckBatchSource: each popped
// batch is assigned a consecutive seq range and the ack closure records
// the completed ranges.
type ackedChanSource struct {
	*chanSource
	mu        sync.Mutex
	delivered uint64
	completed []uint64 // end seq of each completed range, in ack order
}

func (s *ackedChanSource) PopBatchAcked(done <-chan struct{}, buf []Values) ([]Values, func(), bool) {
	batch, ok := s.chanSource.PopBatch(done, buf)
	if !ok {
		return nil, nil, false
	}
	s.mu.Lock()
	s.delivered += uint64(len(batch))
	end := s.delivered
	s.mu.Unlock()
	return batch, func() {
		s.mu.Lock()
		s.completed = append(s.completed, end)
		s.mu.Unlock()
	}, true
}

// TestNetworkSpoutAckedBatches: a source implementing AckBatchSource is
// drained through the acked path — every payload is processed exactly
// once AND every popped batch's completion callback fires exactly once,
// with the summed range sizes covering every delivered tuple.
func TestNetworkSpoutAckedBatches(t *testing.T) {
	src := &ackedChanSource{chanSource: newChanSource(1024)}
	var processed atomic.Int64
	topo, err := NewTopology().
		Spout("net", 1, func(int) Spout { return &NetworkSpout{Source: src, MaxBatch: 16} }).
		Bolt("count", 4, func(int) Bolt {
			return BoltFunc(func(Tuple, Emit) error {
				processed.Add(1)
				return nil
			})
		}).
		Shuffle("net", "count").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := topo.Start(RunConfig{Alloc: map[string]int{"count": 2}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		src.ch <- Values{i}
	}
	src.close()
	waitFor(t, "the acked ranges to cover every tuple", func() bool {
		src.mu.Lock()
		defer src.mu.Unlock()
		return src.delivered == n && slices.Contains(src.completed, n)
	})
	if err := run.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := processed.Load(); got != n {
		t.Fatalf("bolt processed %d tuples, want %d", got, n)
	}
	// Exactly one ack per popped batch: ends are unique.
	seen := map[uint64]bool{}
	for _, e := range src.completed {
		if seen[e] {
			t.Fatalf("range ending at %d acked twice", e)
		}
		seen[e] = true
	}
}

// scriptPop is one scripted pop of a scriptSource.
type scriptPop struct {
	vs     []Values
	traces []uint64
	ack    func()
}

// scriptSource pops the batches the test sends it, one per pop. Once the
// run's done channel closes it pops late — a batch that reaches a stopped
// run — and then reports itself drained. The wrappers below expose it as a
// plain, an acked and a traced source, so NetworkSpout drains the same
// script down each of its paths.
type scriptSource struct {
	pops     chan scriptPop
	late     scriptPop
	lateSent bool // touched by the spout goroutine only
}

func (s *scriptSource) pop(done <-chan struct{}) (scriptPop, bool) {
	select {
	case p := <-s.pops:
		return p, true
	case <-done:
		if s.lateSent {
			return scriptPop{}, false
		}
		s.lateSent = true
		return s.late, true
	}
}

type plainScript struct{ *scriptSource }

func (s plainScript) PopBatch(done <-chan struct{}, _ []Values) ([]Values, bool) {
	p, ok := s.pop(done)
	return p.vs, ok
}

type ackedScript struct{ plainScript }

func (s ackedScript) PopBatchAcked(done <-chan struct{}, _ []Values) ([]Values, func(), bool) {
	p, ok := s.pop(done)
	return p.vs, p.ack, ok
}

type tracedScript struct{ plainScript }

func (s tracedScript) PopBatchTraced(done <-chan struct{}, _ []Values, _ []uint64) ([]Values, []uint64, func(), bool) {
	p, ok := s.pop(done)
	return p.vs, p.traces, p.ack, ok
}

// TestNetworkSpoutInjectionContract holds the one injection body's
// contract at the engine boundary, for each way NetworkSpout drains a
// source: an empty batch fires its callback before the spout pops again; a
// batch popped after Stop began is injected like any other — its roots
// start and complete inside Stop's drain and its callback fires once, so an
// admitted record is never dropped uncounted; and traces close for exactly
// the roots injected with a nonzero trace id.
func TestNetworkSpoutInjectionContract(t *testing.T) {
	for _, tc := range []struct {
		name          string
		wrap          func(*scriptSource) BatchSource
		acked, traced bool
	}{
		{"plain", func(s *scriptSource) BatchSource { return plainScript{s} }, false, false},
		{"acked", func(s *scriptSource) BatchSource { return ackedScript{plainScript{s}} }, true, false},
		{"traced", func(s *scriptSource) BatchSource { return tracedScript{plainScript{s}} }, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				mu     sync.Mutex
				traced []uint64
			)
			tracer := obs.NewTracer(obs.TracerConfig{FlushEvery: time.Millisecond,
				Assembler: obs.NewAssembler(obs.AssemblerConfig{OnComplete: func(tr obs.Trace) {
					mu.Lock()
					traced = append(traced, tr.ID)
					mu.Unlock()
				}})})
			var emptyFired atomic.Bool
			var lateFired atomic.Int32
			batchDone := make(chan struct{})
			src := &scriptSource{pops: make(chan scriptPop),
				late: scriptPop{vs: []Values{{-1}}, traces: []uint64{99}, ack: func() { lateFired.Add(1) }}}
			topo, err := NewTopology().
				Spout("net", 1, func(int) Spout { return &NetworkSpout{Source: tc.wrap(src)} }).
				Bolt("sink", 2, func(int) Bolt { return BoltFunc(func(Tuple, Emit) error { return nil }) }).
				Shuffle("net", "sink").
				Build()
			if err != nil {
				t.Fatal(err)
			}
			run, err := topo.Start(RunConfig{Alloc: map[string]int{"sink": 2}, Tracer: tracer})
			if err != nil {
				t.Fatal(err)
			}

			src.pops <- scriptPop{ack: func() { emptyFired.Store(true) }}
			// The spout takes the next pop only once the empty batch's
			// injection has returned.
			src.pops <- scriptPop{vs: []Values{{0}, {1}, {2}, {3}}, traces: []uint64{0, 7, 0, 9},
				ack: func() { close(batchDone) }}
			if emptyFired.Load() != tc.acked {
				t.Errorf("empty batch fired its callback synchronously: %v, want %v", emptyFired.Load(), tc.acked)
			}
			waitCompleted(t, run, 4)
			if tc.acked {
				select {
				case <-batchDone:
				case <-time.After(5 * time.Second):
					t.Fatal("the batch's callback never fired after its roots completed")
				}
			}

			if err := run.Stop(); err != nil {
				t.Fatal(err)
			}
			if started, completed, _ := run.RootTotals(); started != 5 || completed != 5 {
				t.Errorf("%d roots started and %d completed, want 5 and 5: the batch popped after Stop was dropped", started, completed)
			}
			wantFired := int32(0)
			if tc.acked {
				wantFired = 1
			}
			if fired := lateFired.Load(); fired != wantFired {
				t.Errorf("the batch popped after Stop fired its callback %d times, want %d", fired, wantFired)
			}
			if err := tracer.Close(); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			slices.Sort(traced)
			var want []uint64
			if tc.traced {
				want = []uint64{7, 9, 99}
			}
			if !slices.Equal(traced, want) {
				t.Errorf("traces closed for ids %v, want %v", traced, want)
			}
		})
	}
}

// TestInjectZeroAllocs guards the injection body's steady state: Emit — a
// batch of one through the context's own slot — and EmitBatch into a
// started run allocate nothing, end to end through the bolt.
func TestInjectZeroAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	feed := make(chan []Values)
	topo, err := NewTopology().
		Spout("src", 1, feedSpout(feed)).
		Bolt("sink", 4, func(int) Bolt { return BoltFunc(func(Tuple, Emit) error { return nil }) }).
		Shuffle("src", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"sink": 2})
	batch := make([]Values, 8)
	for i := range batch {
		batch[i] = Values{"x"}
	}
	var done int64
	for _, tc := range []struct {
		name string
		vs   []Values
	}{{"Emit", batch[:1]}, {"EmitBatch", batch}} {
		allocs := testing.AllocsPerRun(1000, func() {
			feed <- tc.vs
			done += int64(len(tc.vs))
			for n, _ := run.Completions(); n < done; n, _ = run.Completions() {
				runtime.Gosched()
			}
		})
		if allocs != 0 {
			t.Errorf("%s into a started run costs %.2f allocs per call, want 0", tc.name, allocs)
		}
	}
}

// TestNetworkSpoutStopsWithRun: a spout blocked on an idle source must
// exit promptly when the run stops (the done-channel fallback).
func TestNetworkSpoutStopsWithRun(t *testing.T) {
	src := newChanSource(1)
	topo, err := NewTopology().
		Spout("net", 1, func(int) Spout { return &NetworkSpout{Source: src} }).
		Bolt("sink", 1, func(int) Bolt { return BoltFunc(func(Tuple, Emit) error { return nil }) }).
		Shuffle("net", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := topo.Start(RunConfig{Alloc: map[string]int{"sink": 1}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- run.Stop() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung on an idle NetworkSpout")
	}
}
