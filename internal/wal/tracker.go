// Tracker: turns out-of-order per-batch completion callbacks from the
// engine into the contiguous ack watermark the log compacts against.

package wal

import "sync"

// Tracker computes the contiguous completion watermark over record
// sequence numbers. Deliveries are registered as FIFO ranges (the gate
// assigns seqs in ring-push order and the spout drains the ring in that
// same order, so ranges arrive with ascending, gap-free bounds); the
// engine completes whole batches out of order. The watermark is the
// largest W such that every seq <= W belongs to a completed range — the
// safe compaction point: a record at or below it has provably been
// processed, so its WAL frame is dead weight.
//
// A delivered range is a recycled node whose completion callback is bound
// once, when the node is first allocated, so a steady deliver → complete
// cycle allocates nothing.
type Tracker struct {
	mu        sync.Mutex
	watermark uint64    // every seq <= watermark completed
	next      uint64    // first seq not yet covered by a delivered range
	pending   []*crange // delivered, not yet retired, in delivery (seq) order
	free      []*crange // retired ranges, reused by Deliver
}

// crange is one delivered batch, ending at seq end, and its completion
// state.
type crange struct {
	t    *Tracker
	end  uint64
	done bool
	ack  func() // the bound complete method Deliver hands out
}

// NewTracker returns a tracker whose watermark starts at w (the recovered
// log watermark: everything at or below it already completed in a prior
// life).
func NewTracker(w uint64) *Tracker {
	return &Tracker{watermark: w, next: w + 1}
}

// noop is the callback of an empty or stale delivery.
func noop() {}

// Deliver registers that the contiguous batch ending at seq `end` has
// been handed to the engine and returns the completion callback for it.
// Ranges must be delivered in FIFO order (each call covers [next, end]).
// The callback is safe to invoke from any goroutine, and must be invoked
// exactly once: once its range retires, it is handed out again for a
// later one.
func (t *Tracker) Deliver(end uint64) func() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if end < t.next {
		return noop
	}
	var c *crange
	if n := len(t.free); n > 0 {
		c, t.free = t.free[n-1], t.free[:n-1]
	} else {
		c = &crange{t: t}
		c.ack = c.complete
	}
	c.end, c.done = end, false
	t.pending = append(t.pending, c)
	t.next = end + 1
	return c.ack
}

// complete marks the range done and advances the watermark across every
// leading completed range, retiring them to the free list.
func (c *crange) complete() {
	t := c.t
	t.mu.Lock()
	defer t.mu.Unlock()
	c.done = true
	k := 0
	for k < len(t.pending) && t.pending[k].done {
		t.watermark = t.pending[k].end
		k++
	}
	if k > 0 {
		t.free = append(t.free, t.pending[:k]...)
		n := copy(t.pending, t.pending[k:])
		t.pending = t.pending[:n]
	}
}

// Watermark reports the current contiguous completion watermark.
func (t *Tracker) Watermark() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.watermark
}
