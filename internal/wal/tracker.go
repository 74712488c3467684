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
type Tracker struct {
	mu        sync.Mutex
	watermark uint64   // every seq <= watermark completed
	next      uint64   // first seq not yet covered by a delivered range
	pending   []crange // delivered, not yet completed, ascending by start
}

// crange is one delivered [start, end] batch and its completion state.
type crange struct {
	start, end uint64
	done       bool
}

// NewTracker returns a tracker whose watermark starts at w (the recovered
// log watermark: everything at or below it already completed in a prior
// life).
func NewTracker(w uint64) *Tracker {
	return &Tracker{watermark: w, next: w + 1}
}

// Deliver registers that the contiguous batch ending at seq `end` has
// been handed to the engine and returns the completion callback for it.
// Ranges must be delivered in FIFO order (each call covers [next, end]).
// The callback is safe to invoke from any goroutine, exactly once.
func (t *Tracker) Deliver(end uint64) func() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if end < t.next {
		// An empty or stale range completes immediately; hand back a no-op.
		return func() {}
	}
	t.pending = append(t.pending, crange{start: t.next, end: end})
	t.next = end + 1
	idx := len(t.pending) - 1
	start := t.pending[idx].start
	return func() { t.complete(start) }
}

// complete marks the range starting at start done and advances the
// watermark across every leading completed range.
func (t *Tracker) complete(start uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.pending {
		if t.pending[i].start == start {
			t.pending[i].done = true
			break
		}
	}
	for len(t.pending) > 0 && t.pending[0].done {
		t.watermark = t.pending[0].end
		t.pending = t.pending[1:]
	}
}

// Watermark reports the current contiguous completion watermark.
func (t *Tracker) Watermark() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.watermark
}
