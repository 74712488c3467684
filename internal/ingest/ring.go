package ingest

import (
	"sync"
	"time"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/obs"
)

// ringFloor is the storage a ring starts with, and never shrinks below,
// when its bound is larger: room for the closed-loop window every client
// keeps, so steady traffic never resizes it.
const ringFloor = 1024

// Ring is the bounded MPSC hand-off between the listener threads and the
// engine's NetworkSpout: producers TryPush decoded payloads, the single
// consumer drains them in batches. It reuses the engine queue idiom — a
// power-of-two ring drained up to a buffer's worth per lock round, with
// batch-granular signaling — but unlike the engine's unbounded executor
// queues it is *bounded*: a push that finds bound payloads queued is
// refused, which the gate converts into explicit client backpressure
// (HTTP 429 / TCP NACK) instead of letting overload grow the data plane's
// memory. The bound is a ceiling, not an allocation: the storage starts at
// min(bound, ringFloor) slots, doubles when a push finds it full below the
// bound, and halves when a pop empties it after a peak under a quarter of
// it (the engine queue's rule, so a shrink copies nothing). The fast paths
// allocate nothing in steady state.
type Ring struct {
	mu     sync.Mutex
	buf    []slot // power-of-two storage, len(buf) <= bound
	bound  int    // power-of-two backlog at which a push is refused
	head   int    // index of the oldest item
	n      int    // live item count
	peak   int    // max live count since the ring last went empty
	pushed uint64 // total successful pushes — the admission seq counter
	closed bool
	// tracer, when set (NewGate wires GateConfig.Tracer), decides per-push
	// — under the ring lock, from the admission seq alone — whether the
	// payload carries a trace id. The sampled-out cost is one hash and a
	// compare; no clock is read here either way.
	tracer *obs.Tracer
	// notEmpty latches the empty->non-empty transition (and the close) for
	// the consumer, notFull every pop (and the close) for a replay waiting
	// on room; capacity 1, non-blocking sends.
	notEmpty, notFull chan struct{}
}

// slot is one ring entry: the payload plus its trace id (0 = untraced).
// The id rides the ring alongside the payload rather than inside it, so
// tracing never widens or reshapes what the topology processes.
type slot struct {
	v     engine.Values
	trace uint64
}

// NewRing builds a ring bounded at capacity payloads (rounded up to a
// power of two; minimum 2).
func NewRing(capacity int) *Ring {
	bound := 2
	for bound < capacity {
		bound *= 2
	}
	return &Ring{
		buf:      make([]slot, min(bound, ringFloor)),
		bound:    bound,
		notEmpty: make(chan struct{}, 1),
		notFull:  make(chan struct{}, 1),
	}
}

// Len reports the current backlog.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Slots reports, in payloads, the backlog, the storage allocated for it
// and the bound at which a push is refused.
func (r *Ring) Slots() (queued, allocated, bound int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n, len(r.buf), r.bound
}

// TryPush enqueues one payload without blocking. It returns false when the
// backlog is at the bound (the backpressure signal) or the ring is closed.
func (r *Ring) TryPush(v engine.Values) bool {
	o := [1]offer{{v: v, verdict: Verdict{Admitted: true}}}
	_, pushed, _ := r.pushBurst(o[:], 0, r.bound)
	return pushed == 1
}

// pushBurst enqueues, in order and under one lock round, the offers whose
// verdict reads Admitted — as many as fit under limit; the rest (all of
// them on a closed ring) are refused as ShedBacklog with the retry-after
// hint given. limit is the backlog at which a push is refused: listeners
// pass the bound, and the storage grows with their backlog; replay passes
// the storage the ring starts with, so it never grows it.
// The pushed ones take the consecutive admission sequence numbers first,
// first+1, … — the count of successful pushes, assigned under the ring lock
// so seq order IS ring FIFO order; the durable gate logs them under these
// seqs and the pop side reconstructs batch seq ranges by counting. A pushed
// offer whose seq wins the tracer's deterministic sampling hash gets that
// seq as its trace id (so a trace names the admission that spawned it and
// the sampled set is identical across runs and processes), riding the ring
// beside its payload and reported in offer.trace, 0 for the others; sampled
// says whether any did.
func (r *Ring) pushBurst(offers []offer, retryAfter time.Duration, limit int) (first uint64, pushed int, sampled bool) {
	r.mu.Lock()
	first = r.pushed + 1
	wake := r.n == 0
	for i := range offers {
		o := &offers[i]
		if !o.verdict.Admitted {
			continue
		}
		if r.closed || r.n >= limit {
			o.verdict = Verdict{Reason: ShedBacklog, RetryAfter: retryAfter}
			continue
		}
		if r.n == len(r.buf) {
			r.grow()
		}
		r.pushed++
		o.trace = 0
		if r.tracer.SampleTrace(r.pushed) {
			o.trace, sampled = r.pushed, true
		}
		r.buf[(r.head+r.n)&(len(r.buf)-1)] = slot{v: o.v, trace: o.trace}
		r.n++
		pushed++
	}
	r.peak = max(r.peak, r.n)
	r.mu.Unlock()
	if wake && pushed > 0 {
		latch(r.notEmpty)
	}
	return first, pushed, sampled
}

// grow doubles the full storage, unwinding the wrapped items oldest first
// to index 0 with their trace ids beside them.
func (r *Ring) grow() {
	nb := make([]slot, 2*len(r.buf))
	k := copy(nb, r.buf[r.head:])
	copy(nb[k:], r.buf[:r.head])
	r.buf, r.head = nb, 0
}

// Pushed reports the total successful pushes — the high end of the
// admission seq space. With every pushed seq completed (watermark ==
// Pushed), nothing admitted is still in flight.
func (r *Ring) Pushed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pushed
}

// setPushed seeds the admission seq counter — crash recovery anchors it
// at the recovered ack watermark so replayed pushes continue the logged
// seq space. Call before any push.
func (r *Ring) setPushed(n uint64) {
	r.mu.Lock()
	r.pushed = n
	r.mu.Unlock()
}

// latch records one wake-up on c without blocking.
func latch(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// PopBatch implements engine.BatchSource: it blocks until payloads are
// available, moves up to cap(buf) of them into buf under one lock round,
// and returns the filled prefix. Admitted payloads are never abandoned: a
// closed ring keeps returning batches until it is empty, and only then
// reports ok=false. done is the consumer's shutdown fallback — when it
// closes while the ring is empty, PopBatch returns promptly.
func (r *Ring) PopBatch(done <-chan struct{}, buf []engine.Values) ([]engine.Values, bool) {
	batch, _, ok := r.popBatch(done, buf, nil)
	return batch, ok
}

// PopBatchTraced implements engine.TracedBatchSource for the non-durable
// gate: PopBatch additionally returning each payload's trace id. The ack
// is always nil — only the durable source tracks completions.
func (r *Ring) PopBatchTraced(done <-chan struct{}, buf []engine.Values, ids []uint64) ([]engine.Values, []uint64, func(), bool) {
	batch, traces, ok := r.popBatch(done, buf, ids)
	return batch, traces, nil, ok
}

// popBatch is the shared drain: it blocks until payloads are available,
// moves up to cap(buf) of them into buf under one lock round, and — when
// ids is non-nil — mirrors their trace ids into ids. traces is nil when
// ids is (the untraced callers pay nothing for the trace lane).
func (r *Ring) popBatch(done <-chan struct{}, buf []engine.Values, ids []uint64) (batch []engine.Values, traces []uint64, ok bool) {
	max := cap(buf)
	if max == 0 {
		max = 1
		buf = make([]engine.Values, 0, 1)
	}
	if ids != nil && cap(ids) < max {
		ids = make([]uint64, 0, max)
	}
	for {
		r.mu.Lock()
		if r.n > 0 {
			take := r.n
			if take > max {
				take = max
			}
			out := buf[:take]
			mask := len(r.buf) - 1
			if ids != nil {
				traces = ids[:take]
			}
			for i := 0; i < take; i++ {
				idx := (r.head + i) & mask
				out[i] = r.buf[idx].v
				if ids != nil {
					traces[i] = r.buf[idx].trace
				}
				r.buf[idx] = slot{} // release the payload reference
			}
			r.head = (r.head + take) & mask
			r.n -= take
			if r.n == 0 {
				// Empty: a shrink copies nothing. Storage a burst grew is
				// halved once per empty point whose peak used under a
				// quarter of it.
				if len(r.buf) > ringFloor && r.peak*4 < len(r.buf) {
					r.buf, r.head = make([]slot, len(r.buf)/2), 0
				}
				r.peak = 0
			}
			r.mu.Unlock()
			latch(r.notFull)
			return out, traces, true
		}
		closed := r.closed
		r.mu.Unlock()
		if closed {
			return nil, nil, false
		}
		select {
		case <-r.notEmpty:
		case <-done:
			return nil, nil, false
		}
	}
}

// Close marks the ring closed: pushes start failing immediately, and the
// consumer drains what remains before PopBatch reports ok=false. Safe to
// call more than once.
func (r *Ring) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	latch(r.notEmpty)
	latch(r.notFull)
}
