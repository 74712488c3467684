// Package engine is the CSP (cloud stream processing) substrate: a small,
// from-scratch, Storm-like operator DSMS. Applications are topologies of
// spouts (sources) and bolts (operators); each bolt is partitioned into a
// fixed number of tasks (the paper's Appendix-C partitioning scheme), and
// tasks are assigned to executors — goroutines with an input queue. Because
// routing targets tasks, not executors, the executor count of a bolt can be
// changed at runtime ("re-balancing") without changing routing and without
// losing task-local state, which is exactly the mechanism DRS relies on.
//
// The engine measures itself with the metrics package probes: arrivals are
// counted at the queue tail, service times per tuple, and every external
// tuple's processing tree is tracked so its total sojourn time is recorded
// on completion — the quantity the paper's measurer feeds to the optimizer.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// queueItem pairs a tuple with the task that must process it.
type queueItem struct {
	task int
	tup  Tuple
}

// queue shrink policy: a ring above shrinkCap capacity whose burst peak
// since the last empty point used less than a quarter of it is released,
// so a queue that grew during a burst does not pin burst-peak memory for
// the rest of a long run.
const shrinkCap = 1024

// yieldDepth is the cooperative-backpressure mark: a producer that leaves
// a queue deeper than this yields its processor slice so consumers can
// drain. The queue stays unbounded (no deadlock on self-loops — a yield
// always returns), but on saturated schedulers the in-flight window stays
// small enough to be cache-resident instead of growing a full scheduler
// quantum's worth of cold tuples.
const yieldDepth = 512

// queue is an unbounded MPSC blocking queue, batch-aware on both ends:
// producers can push a slice of items under one lock round, and the
// single consumer takes the whole ring per lock round (popAll). Storage is a
// power-of-two ring, so steady-state traffic recirculates one buffer
// instead of growing an append-only slice. Unbounded matters: with loop
// topologies (FPD's detector notifies itself) a bounded queue lets an
// executor block on emitting to itself — a deadlock the paper's Storm
// setup avoids with large buffers. Memory pressure is the accepted trade,
// as in the paper ("errors when the queue reaches its size limit" is the
// overload failure mode we surface through latency instead).
type queue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buf     []queueItem // power-of-two ring
	head    int         // index of the oldest item
	n       int         // live item count
	peak    int         // max live count since the queue last went empty
	waiting int         // poppers parked in cond.Wait
	closed  bool        // pushes are refused: the queue was seized
	// halted is the consumer's stop switch (executor.stop): popAll returns
	// nothing once it is set, and the drain loop reads it, without the lock,
	// at every tuple boundary. Pushes are still taken. Set under mu, so a
	// popper cannot park past it.
	halted atomic.Bool
	// out counts the outstanding items: pushed and not yet served, so the
	// popped batch the consumer is working through is still in it. It is
	// the load signal shuffle routing reads without the lock
	// (emitter.leastLoaded). Raised only by pushBatch, under mu — it shares
	// a cache line with the fields a push writes anyway — and lowered by
	// whoever takes items off the queue's books: the drain loops as they
	// serve, seize for what it takes.
	out atomic.Int64
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// growLocked ensures room for need more items, doubling the ring.
func (q *queue) growLocked(need int) {
	want := q.n + need
	newCap := cap(q.buf)
	if newCap == 0 {
		newCap = 16
	}
	for newCap < want {
		newCap *= 2
	}
	if newCap == cap(q.buf) {
		return
	}
	nb := make([]queueItem, newCap)
	q.copyOutLocked(nb[:q.n])
	q.buf = nb
	q.head = 0
}

// copyOutLocked copies the oldest len(dst) items into dst in FIFO order.
func (q *queue) copyOutLocked(dst []queueItem) {
	first := q.head
	if tail := len(q.buf) - first; tail < len(dst) {
		copy(dst, q.buf[first:])
		copy(dst[tail:], q.buf[:len(dst)-tail])
	} else {
		copy(dst, q.buf[first:first+len(dst)])
	}
}

// push enqueues one item; returns false if the queue is closed.
func (q *queue) push(it queueItem) bool {
	var buf [1]queueItem
	buf[0] = it
	return q.pushBatch(buf[:])
}

// pushBatch enqueues a slice of items under a single lock round; the items
// are copied, so the caller may reuse its buffer immediately. Returns false
// (enqueuing nothing) if the queue is closed.
func (q *queue) pushBatch(its []queueItem) bool {
	if len(its) == 0 {
		return true
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if q.n+len(its) > cap(q.buf) {
		q.growLocked(len(its))
	}
	mask := cap(q.buf) - 1
	tail := (q.head + q.n) & mask
	if room := cap(q.buf) - tail; room < len(its) {
		copy(q.buf[tail:], its[:room])
		copy(q.buf, its[room:])
	} else {
		copy(q.buf[tail:tail+len(its)], its)
	}
	q.n += len(its)
	q.out.Add(int64(len(its)))
	if q.n > q.peak {
		q.peak = q.n
	}
	// A parked popper implies the queue was empty, so one signal per
	// empty->non-empty transition suffices: whoever wakes drains to empty
	// before parking again.
	wake := q.n == len(its) && q.waiting > 0
	deep := q.n > yieldDepth
	q.mu.Unlock()
	if wake {
		q.cond.Signal()
	}
	if deep {
		runtime.Gosched()
	}
	return true
}

// popAll blocks until items are available or the queue is halted, then takes the entire ring in O(1): the queue keeps
// spare as its new (empty) ring, and the caller gets the old one to iterate
// in place — no copy happens under the lock. spare must be a cleared
// full-length ring from a previous popAll (or nil). The returned items live
// at ring[(head+i) % len(ring)] for i in [0, n).
func (q *queue) popAll(spare []queueItem) (ring []queueItem, head, n int, ok bool) {
	q.mu.Lock()
	for {
		if q.halted.Load() {
			q.mu.Unlock()
			return nil, 0, 0, false
		}
		if q.n > 0 {
			ring, head, n = q.buf, q.head, q.n
			if cap(spare) > shrinkCap && q.peak*4 < cap(spare) {
				spare = nil // shrink: drop an oversized burst-era ring
			}
			q.buf = spare[:cap(spare)]
			q.head = 0
			q.n = 0
			q.peak = 0
			q.mu.Unlock()
			return ring, head, n, true
		}
		q.waiting++
		q.cond.Wait()
		q.waiting--
	}
}

// halt sets the stop switch and wakes the parked consumer; it reports
// whether this call set it.
func (q *queue) halt() bool {
	q.mu.Lock()
	first := !q.halted.Swap(true)
	q.mu.Unlock()
	q.cond.Broadcast()
	return first
}

// seize closes the queue and takes the backlog it still holds, for the
// caller to hand over; its consumer has exited without draining it. A
// closed queue refuses pushes, so nothing can land behind what seize took.
func (q *queue) seize() []queueItem {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	if q.n == 0 {
		return nil
	}
	out := make([]queueItem, q.n)
	q.copyOutLocked(out)
	q.served(q.n) // seized for a handover: counted again where they land
	q.buf, q.head, q.n, q.peak = nil, 0, 0, 0
	return out
}

// served takes n items off the outstanding count: they were processed, or
// left this queue's books for a replay that counts them where they land.
func (q *queue) served(n int) { q.out.Add(-int64(n)) }

// outstanding reports the items pushed and not yet served (queued plus in
// service), without taking the lock.
func (q *queue) outstanding() int { return int(q.out.Load()) }
