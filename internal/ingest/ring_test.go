package ingest

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/obs"
)

// ringSeqs pushes the admission seqs from..to as one-field payloads.
func ringSeqs(t *testing.T, r *Ring, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		if !r.TryPush(engine.Values{i}) {
			t.Fatalf("push of seq %d refused at backlog %d", i, r.Len())
		}
	}
}

// popSeqs pops n payloads in batches of up to 256 and checks that they are
// the consecutive seqs from.. in FIFO order, each carrying its trace id:
// the seq itself when the tracer samples it, 0 otherwise.
func popSeqs(t *testing.T, r *Ring, tr *obs.Tracer, from, n int) {
	t.Helper()
	buf, ids := make([]engine.Values, 0, 256), make([]uint64, 0, 256)
	for want := from; want < from+n; {
		batch, traces, _, ok := r.PopBatchTraced(nil, buf[:0:min(cap(buf), from+n-want)], ids)
		if !ok {
			t.Fatalf("pop at seq %d: ring reported drained", want)
		}
		for i, v := range batch {
			wantTrace := uint64(0)
			if tr.SampleTrace(uint64(want)) {
				wantTrace = uint64(want)
			}
			if v[0].(int) != want || traces[i] != wantTrace {
				t.Fatalf("popped seq %v trace %d, want seq %d trace %d", v[0], traces[i], want, wantTrace)
			}
			want++
		}
	}
}

func ringStorage(r *Ring) int {
	_, allocated, _ := r.Slots()
	return allocated
}

// TestRingGrowShrinkKeepsOrder: storage doubles when a push finds it full
// below the bound — with the head wrapped, the items unwind oldest first
// and each keeps its trace id — and halves once per empty point whose peak
// used under a quarter of it, down to the floor and no further.
func TestRingGrowShrinkKeepsOrder(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{SamplePermille: 500})
	defer tr.Close()
	r := NewRing(1 << 14)
	r.tracer = tr
	if got := ringStorage(r); got != ringFloor {
		t.Fatalf("fresh ring holds %d slots, want %d", got, ringFloor)
	}
	ringSeqs(t, r, 1, 700)
	popSeqs(t, r, tr, 1, 600)
	ringSeqs(t, r, 701, 1624) // fills the 1024 slots with the head at 600
	if r.head == 0 || ringStorage(r) != ringFloor {
		t.Fatalf("head %d storage %d: want a full, wrapped ring of %d", r.head, ringStorage(r), ringFloor)
	}
	ringSeqs(t, r, 1625, 3700) // grows twice
	if got := ringStorage(r); got != 4096 {
		t.Fatalf("backlog %d in %d slots, want 4096", r.Len(), got)
	}
	popSeqs(t, r, tr, 601, 3100)
	if got := ringStorage(r); got != 4096 {
		t.Fatalf("emptied after a peak of 3100: storage %d, want 4096 kept", got)
	}
	seq := 3701
	for _, want := range []int{2048, 1024, 1024} {
		ringSeqs(t, r, seq, seq+99)
		popSeqs(t, r, tr, seq, 100)
		seq += 100
		if got := ringStorage(r); got != want {
			t.Fatalf("emptied after a peak of 100: storage %d, want %d", got, want)
		}
	}
}

// TestRingRefusesAtBound: a push is refused when the backlog reaches the
// bound, not when it reaches the storage allocated so far; a burst crossing
// the bound is cut exactly there.
func TestRingRefusesAtBound(t *testing.T) {
	r := NewRing(3000) // bound 4096, storage 1024
	if q, a, b := r.Slots(); q != 0 || a != ringFloor || b != 4096 {
		t.Fatalf("slots %d/%d/%d, want 0/%d/4096", q, a, b, ringFloor)
	}
	ringSeqs(t, r, 1, 4090)
	offers := make([]offer, 10)
	for i := range offers {
		offers[i] = offer{v: engine.Values{4091 + i}, verdict: Verdict{Admitted: true}}
	}
	first, pushed, _ := r.pushBurst(offers, 0, r.bound)
	if first != 4091 || pushed != 6 {
		t.Fatalf("burst at backlog 4090: first %d pushed %d, want 4091 and 6", first, pushed)
	}
	for i, o := range offers {
		if admitted := i < 6; o.verdict.Admitted != admitted || !admitted && o.verdict.Reason != ShedBacklog {
			t.Fatalf("offer %d: verdict %+v", i, o.verdict)
		}
	}
	if q, a, b := r.Slots(); q != 4096 || a != 4096 || b != 4096 {
		t.Fatalf("slots %d/%d/%d, want 4096 ×3", q, a, b)
	}
	popSeqs(t, r, nil, 1, 1)
	ringSeqs(t, r, 4097, 4097)
	if r.TryPush(engine.Values{0}) {
		t.Fatal("push at the bound admitted")
	}
	if small := NewRing(5); ringStorage(small) != 8 {
		t.Fatalf("a ring bounded under the floor holds %d slots, want its bound 8", ringStorage(small))
	}

	// Under a limit below the bound — replay's — a full storage refuses
	// instead of growing.
	r = NewRing(3000)
	offers = make([]offer, ringFloor+5)
	for i := range offers {
		offers[i] = offer{v: engine.Values{i}, verdict: Verdict{Admitted: true}}
	}
	if _, pushed, _ := r.pushBurst(offers, 0, ringFloor); pushed != ringFloor || offers[ringFloor].verdict.Admitted {
		t.Fatalf("burst under limit %d pushed %d (next verdict %+v)", ringFloor, pushed, offers[ringFloor].verdict)
	}
	if q, a, _ := r.Slots(); q != ringFloor || a != ringFloor {
		t.Fatalf("slots %d/%d after a limited burst, want %d/%d", q, a, ringFloor, ringFloor)
	}
}

// TestRingClosedDrainsAcrossResize: a closed ring refuses pushes but hands
// out everything admitted before the close — the items a grow moved
// included — and only then reports drained.
func TestRingClosedDrainsAcrossResize(t *testing.T) {
	r := NewRing(1 << 12)
	ringSeqs(t, r, 1, 700)
	popSeqs(t, r, nil, 1, 500)
	ringSeqs(t, r, 701, 2200) // grows with the head wrapped
	r.Close()
	if r.TryPush(engine.Values{0}) {
		t.Fatal("closed ring admitted a push")
	}
	popSeqs(t, r, nil, 501, 1700)
	if _, ok := r.PopBatch(nil, make([]engine.Values, 0, 8)); ok {
		t.Fatal("drained closed ring reported ok")
	}
}

// TestRingSteadyDepthNoResize: push/pop at a constant backlog — empty
// between rounds, under the floor, or above it — never reallocates the
// storage, and allocates nothing.
func TestRingSteadyDepthNoResize(t *testing.T) {
	for _, depth := range []int{0, 900, 3000} {
		r := NewRing(1 << 16)
		ringSeqs(t, r, 1, depth)
		storage := &r.buf[0]
		buf := make([]engine.Values, 0, 64)
		v := engine.Values{0}
		round := func() {
			for i := 0; i < 64; i++ {
				r.TryPush(v)
			}
			r.PopBatch(nil, buf)
		}
		for i := 0; i < 1000; i++ {
			round()
		}
		if &r.buf[0] != storage || r.Len() != depth {
			t.Fatalf("depth %d: storage reallocated (%d slots) or backlog moved to %d", depth, ringStorage(r), r.Len())
		}
		if obs.RaceEnabled {
			continue // AllocsPerRun is unreliable under -race
		}
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Fatalf("depth %d: %.2f allocs per push/pop round, want 0", depth, allocs)
		}
	}
}

// TestRingStormAcrossGrowAndShrink: concurrent producers grow the storage
// while nothing drains it, then push small rounds against a live consumer
// that empties it — the storage halves back to the floor — and every
// producer's payloads come out in its own push order, none lost.
func TestRingStormAcrossGrowAndShrink(t *testing.T) {
	const producers = 4
	r := NewRing(1 << 13)
	sent := make([]int, producers)
	next := make([]int, producers)
	var refused atomic.Int64
	// push starts the producers, each pushing per payloads and stopping at
	// a refusal (never due below the bound); the channel closes when all
	// have returned.
	push := func(per int) chan struct{} {
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for end := sent[p] + per; sent[p] < end; sent[p]++ {
					if !r.TryPush(engine.Values{p, sent[p]}) {
						refused.Add(1)
						return
					}
				}
			}(p)
		}
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		return finished
	}
	buf := make([]engine.Values, 0, 256)
	drain := func(n int, finished chan struct{}) {
		for got := 0; got < n; {
			batch, ok := r.PopBatch(finished, buf)
			if !ok && r.Len() > 0 {
				continue // finished closed as the last pushes landed, and PopBatch's select took it
			}
			if !ok {
				t.Fatalf("ring empty after %d of %d pops, %d pushes refused", got, n, refused.Load())
			}
			for _, v := range batch {
				p, i := v[0].(int), v[1].(int)
				if i != next[p] {
					t.Fatalf("producer %d: popped %d, want %d", p, i, next[p])
				}
				next[p]++
			}
			got += len(batch)
		}
	}
	finished := push(1000)
	<-finished
	if got := ringStorage(r); got != 4096 {
		t.Fatalf("after %d concurrent pushes: storage %d, want 4096", producers*1000, got)
	}
	drain(producers*1000, finished)
	for round := 0; round < 6; round++ {
		finished := push(16)
		drain(producers*16, finished)
		<-finished
	}
	if got := ringStorage(r); got != ringFloor {
		t.Fatalf("after small rounds: storage %d, want %d", got, ringFloor)
	}
	if r.Len() != 0 {
		t.Fatalf("backlog %d left", r.Len())
	}
}
