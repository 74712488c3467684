package engine

import (
	"sync"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/obs"
)

// tracedChanSource wraps chanSource into a TracedBatchSource: each popped
// payload carries a caller-chosen trace id (0 = untraced), the way the
// ingest ring carries the admit-time sampling verdict.
type tracedChanSource struct {
	*chanSource
	traceFor func(seq uint64) uint64
	mu       sync.Mutex
	popped   uint64
}

func (s *tracedChanSource) PopBatchTraced(done <-chan struct{}, buf []Values, ids []uint64) ([]Values, []uint64, func(), bool) {
	batch, ok := s.chanSource.PopBatch(done, buf)
	if !ok {
		return nil, nil, nil, false
	}
	s.mu.Lock()
	ids = ids[:0]
	for range batch {
		s.popped++
		ids = append(ids, s.traceFor(s.popped))
	}
	s.mu.Unlock()
	return batch, ids, nil, true
}

// TestTraceReconciliationChain is the engine-level telescoping contract:
// on a two-bolt chain with every root traced, each completed trace's
// segment durations sum exactly to its root sojourn, the trace's booked
// sojourn equals the engine's own books, and every traced root yields
// exactly one complete trace.
func TestTraceReconciliationChain(t *testing.T) {
	var (
		mu        sync.Mutex
		completed []obs.Trace
	)
	asm := obs.NewAssembler(obs.AssemblerConfig{
		OnComplete: func(tr obs.Trace) {
			mu.Lock()
			completed = append(completed, tr)
			mu.Unlock()
		},
	})
	tracer := obs.NewTracer(obs.TracerConfig{
		Shards: 4, ShardCapacity: 1 << 16,
		Assembler: asm, FlushEvery: time.Millisecond,
	})

	src := &tracedChanSource{
		chanSource: newChanSource(1024),
		traceFor:   func(seq uint64) uint64 { return seq }, // trace everything
	}
	topo, err := NewTopology().
		Spout("net", 1, func(int) Spout { return &NetworkSpout{Source: src, MaxBatch: 16} }).
		Bolt("a", 2, func(int) Bolt {
			return BoltFunc(func(tup Tuple, emit Emit) error {
				emit(tup.Values) // chain: one child per tuple
				return nil
			})
		}).
		Bolt("b", 2, func(int) Bolt { return BoltFunc(func(Tuple, Emit) error { return nil }) }).
		Shuffle("net", "a").
		Shuffle("a", "b").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := topo.Start(RunConfig{Alloc: map[string]int{"a": 2, "b": 2}, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		src.ch <- Values{i}
	}
	src.close()
	waitCompleted(t, run, n)
	_, _, bookedNS := run.RootTotals()
	if err := run.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(completed) != n {
		t.Fatalf("completed %d traces, want one per traced root (%d)", len(completed), n)
	}
	seen := make(map[uint64]bool, n)
	var tracedSojournNS int64
	for _, tr := range completed {
		if seen[tr.ID] {
			t.Fatalf("trace %d completed twice", tr.ID)
		}
		seen[tr.ID] = true
		if tr.ID < 1 || tr.ID > n {
			t.Fatalf("trace id %d outside the admitted range", tr.ID)
		}
		// The chain contract, exact: no gaps, no overlaps, no shuttle.
		if tr.QueueNS+tr.ServiceNS+tr.ShuttleNS != tr.SojournNS {
			t.Fatalf("trace %d does not telescope: queue %d + service %d + shuttle %d != sojourn %d",
				tr.ID, tr.QueueNS, tr.ServiceNS, tr.ShuttleNS, tr.SojournNS)
		}
		if tr.ShuttleNS != 0 || tr.Remote != 0 {
			t.Fatalf("trace %d crossed a shuttle in an all-local run: %+v", tr.ID, tr)
		}
		// Two hops, each a queue + service pair.
		if tr.Spans != 4 {
			t.Fatalf("trace %d folded %d segment spans, want 4", tr.ID, tr.Spans)
		}
		if tr.SojournNS <= 0 || tr.QueueNS < 0 || tr.ServiceNS < 0 {
			t.Fatalf("trace %d has impossible segments: %+v", tr.ID, tr)
		}
		tracedSojournNS += tr.SojournNS
	}
	// Traced roots book the same wall-stamp sojourn their trace measures,
	// so the books and the traces agree exactly.
	if tracedSojournNS != bookedNS {
		t.Fatalf("trace sojourn sum %d != engine books %d", tracedSojournNS, bookedNS)
	}
	st := tracer.Stats()
	if st.Dropped != 0 {
		t.Fatalf("dropped %d spans with oversized rings, want 0", st.Dropped)
	}
	ast := asm.Stats()
	if ast.Started != n || ast.Completed != n || ast.Pending != 0 || ast.Lost != 0 {
		t.Fatalf("assembler did not balance: %+v", ast)
	}
}

// TestTraceSampledOutRootsEmitNothing: roots whose trace id is zero flow
// through the traced spout path untraced — no spans, no assembler
// entries, books unaffected.
func TestTraceSampledOutRootsEmitNothing(t *testing.T) {
	asm := obs.NewAssembler(obs.AssemblerConfig{})
	tracer := obs.NewTracer(obs.TracerConfig{Assembler: asm, FlushEvery: time.Millisecond})
	src := &tracedChanSource{
		chanSource: newChanSource(1024),
		traceFor:   func(seq uint64) uint64 { return 0 }, // sample nothing
	}
	topo, err := NewTopology().
		Spout("net", 1, func(int) Spout { return &NetworkSpout{Source: src, MaxBatch: 16} }).
		Bolt("sink", 2, func(int) Bolt { return BoltFunc(func(Tuple, Emit) error { return nil }) }).
		Shuffle("net", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := topo.Start(RunConfig{Alloc: map[string]int{"sink": 1}, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		src.ch <- Values{i}
	}
	src.close()
	waitCompleted(t, run, n)
	if err := run.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	if st := tracer.Stats(); st.Spans != 0 {
		t.Fatalf("sampled-out run emitted %d spans, want 0", st.Spans)
	}
	if ast := asm.Stats(); ast.Started != 0 {
		t.Fatalf("assembler saw %d traces in a sampled-out run: %+v", ast.Started, ast)
	}
}

// TestBatchScopeTracedTelescopes pins the traced exception of a fast
// bolt's batch scope: on a three-bolt chain with half the roots traced,
// untraced and traced tuples share popped batches, so a traced tuple
// finds earlier tuples' children buffered. It must deliver them before its
// own scope opens, or its flush forks them onto its tree, which then never
// completes. Every traced root yields one complete trace that telescopes
// exactly over its three hops, and every root, traced or not, completes.
func TestBatchScopeTracedTelescopes(t *testing.T) {
	var (
		mu        sync.Mutex
		completed []obs.Trace
	)
	asm := obs.NewAssembler(obs.AssemblerConfig{
		OnComplete: func(tr obs.Trace) {
			mu.Lock()
			completed = append(completed, tr)
			mu.Unlock()
		},
	})
	tracer := obs.NewTracer(obs.TracerConfig{
		Shards: 4, ShardCapacity: 1 << 16,
		Assembler: asm, FlushEvery: time.Millisecond,
	})
	// Half the roots, scattered by a multiplicative hash so that no
	// executor's share of a batch is all traced or all untraced.
	traced := func(seq uint64) bool { return (seq*0x9E3779B97F4A7C15)>>63 == 0 }
	src := &tracedChanSource{
		chanSource: newChanSource(1024),
		traceFor: func(seq uint64) uint64 {
			if traced(seq) {
				return seq
			}
			return 0
		},
	}
	fwd := func(int) Bolt {
		return BoltFunc(func(tup Tuple, emit Emit) error {
			emit(tup.Values)
			return nil
		})
	}
	topo, err := NewTopology().
		Spout("net", 1, func(int) Spout { return &NetworkSpout{Source: src, MaxBatch: 64} }).
		Bolt("a", 4, fwd).
		Bolt("b", 4, fwd).
		Bolt("c", 4, func(int) Bolt { return BoltFunc(func(Tuple, Emit) error { return nil }) }).
		Shuffle("net", "a").
		Shuffle("a", "b").
		Shuffle("b", "c").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := topo.Start(RunConfig{Alloc: map[string]int{"a": 2, "b": 2, "c": 2}, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	want := 0
	for i := 0; i < n; i++ {
		if traced(uint64(i + 1)) {
			want++
		}
		src.ch <- Values{i}
	}
	src.close()
	waitCompleted(t, run, n)
	if err := run.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(completed) != want {
		t.Fatalf("completed %d traces, want one per traced root (%d)", len(completed), want)
	}
	seen := make(map[uint64]bool, want)
	for _, tr := range completed {
		if seen[tr.ID] || !traced(tr.ID) || tr.ID > n {
			t.Fatalf("trace %d completed twice or was never sampled", tr.ID)
		}
		seen[tr.ID] = true
		if tr.QueueNS+tr.ServiceNS+tr.ShuttleNS != tr.SojournNS {
			t.Fatalf("trace %d does not telescope: queue %d + service %d + shuttle %d != sojourn %d",
				tr.ID, tr.QueueNS, tr.ServiceNS, tr.ShuttleNS, tr.SojournNS)
		}
		// Three hops, each a queue + service pair.
		if tr.Spans != 6 || tr.ShuttleNS != 0 || tr.SojournNS <= 0 || tr.QueueNS < 0 || tr.ServiceNS < 0 {
			t.Fatalf("trace %d has impossible segments: %+v", tr.ID, tr)
		}
	}
	if ast := asm.Stats(); ast.Started != uint64(want) || ast.Completed != uint64(want) || ast.Pending != 0 || ast.Lost != 0 {
		t.Fatalf("assembler did not balance: %+v", ast)
	}
}
