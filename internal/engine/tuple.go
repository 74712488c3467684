package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/drs-repro/drs/internal/obs"
)

// Values is the payload of a tuple: a positional field list, as in Storm.
type Values []any

// Tuple is a unit of data flowing through the topology. The zero value is
// not useful; tuples are created by the engine when spouts and bolts emit.
type Tuple struct {
	// Values is the tuple payload.
	Values Values
	tree   *ackTree
	// handoff is the parent's service-end wall stamp (unix nanoseconds),
	// read only when the tuple's tree is traced: the child's queue-wait
	// span starts exactly where the parent's service span ended, so a
	// trace's segments telescope with no gaps or overlaps.
	handoff int64
}

// ackTree tracks one external tuple's processing tree: it completes when
// every derived tuple has been processed — the paper's definition of
// "fully processed", measured by Storm through its acking mechanism.
//
// Trees are pooled: the last ack is a unique release point (pending hits
// zero exactly once, and no fork can race with it because forks only
// happen while the forking node is itself pending), so the completing
// goroutine can recycle the tree after recording the sojourn.
type ackTree struct {
	arrived time.Time
	pending atomic.Int64
	run     *Run
	// batch, when non-nil, is the completion countdown of the injected
	// batch this root belongs to; completion decrements it (see batchAck).
	batch *batchAck
	// shard is a fixed rootLog shard, assigned once when the tree object
	// is first allocated; distinct pool objects land on distinct shards,
	// spreading concurrent completions across cache lines.
	shard uint32
	// trace is the sampled trace id (0 = untraced — the common case).
	// Children share the tree pointer, so the id rides the whole
	// processing tree for free; completion emits the root span and
	// clears it before the tree is pooled.
	trace uint64
	// arrivedNS is the root's arrival wall stamp, set only for traced
	// roots: trace segments are wall-clock diffs, so the root span (and
	// the traced root's book entry) must be too, or the telescoped
	// segment sum would drift from the sojourn by clock-step noise.
	arrivedNS int64
	// endNS is the maximum segment-end stamp any traced ack has recorded
	// (noteEnd). The completing ack is the last to *execute*, not the one
	// with the latest stamp — a parent that read its end before flushing
	// children can ack after a child already did — so the root span must
	// close at the max across acks or a trace's segments could extend
	// past its sojourn. Untraced trees never touch it.
	endNS atomic.Int64
}

var treeShardSeq atomic.Uint32

var treePool = sync.Pool{New: func() any {
	return &ackTree{shard: treeShardSeq.Add(1)}
}}

// newRootFor starts a pooled tree completing into r's root log. pending
// is zero here (both for fresh and recycled trees — completion leaves it
// at zero); the emitter's sealRoot installs the child count before any
// child is enqueued.
func newRootFor(r *Run, now time.Time) *ackTree {
	t := treePool.Get().(*ackTree)
	t.arrived = now
	t.run = r
	return t
}

// fork registers n more pending nodes (children emitted by a bolt). It must
// be called before the children are enqueued.
func (t *ackTree) fork(n int) {
	if n > 0 {
		t.pending.Add(int64(n))
	}
}

// ack resolves one node; the last ack completes the tree and recycles it.
func (t *ackTree) ack(now time.Time) {
	if t.pending.Add(-1) == 0 {
		t.complete(now)
	}
}

// ackLazy resolves one node without a timestamp in hand, reading the clock
// only if this ack completes the tree — the common non-completing ack of a
// fan-out tree costs no clock call. An untraced tree completes on one
// monotonic read (its sojourn is only a difference); a traced one reads
// the wall clock its root span needs.
func (t *ackTree) ackLazy() {
	if t.pending.Add(-1) == 0 {
		if t.trace != 0 {
			t.complete(time.Now())
		} else {
			t.complete(t.arrived.Add(time.Since(t.arrived)))
		}
	}
}

// noteEnd records a traced hop's segment-end stamp before its ack, keeping
// the running maximum. Called only on traced paths; the pending counter
// orders every noteEnd before the completing read in complete.
func (t *ackTree) noteEnd(ns int64) {
	for {
		cur := t.endNS.Load()
		if ns <= cur || t.endNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

func (t *ackTree) complete(now time.Time) {
	r := t.run
	sojourn := now.Sub(t.arrived)
	if t.trace != 0 {
		// Traced roots book the same wall-stamp sojourn their trace
		// carries, so the root span reconciles bit-for-bit with both the
		// segment telescope and the root log. The root closes at the max
		// segment end any ack noted, not the completing ack's own stamp —
		// the two differ when a parent's ack executes after its child's.
		endNS := now.UnixNano()
		if m := t.endNS.Load(); m > endNS {
			endNS = m
		}
		t.endNS.Store(0)
		ns := endNS - t.arrivedNS
		sojourn = time.Duration(ns)
		if tr := r.cfg.Tracer; tr != nil {
			span := obs.SpanRecord{Trace: t.trace, Kind: obs.SpanRoot, StartNS: t.arrivedNS, DurNS: ns}
			tr.EmitSpan(&span)
		}
		t.trace, t.arrivedNS = 0, 0
	}
	r.roots.complete(t.shard, sojourn)
	if b := t.batch; b != nil {
		t.batch = nil
		b.ack()
	}
	t.run = nil
	treePool.Put(t)
	// The last completion wakes a draining Stop, after the batch callback:
	// the woken Stop may close the books that callback feeds.
	if r.draining.Load() && r.roots.pending() == 0 && r.draining.CompareAndSwap(true, false) {
		close(r.quiet)
	}
}

// batchAck is the countdown behind an injected batch's completion
// callback (spoutCtx.inject): pending is installed at the batch size
// before any root can complete, and the last completing root fires done.
// Batches without a callback never touch it — the only cost they pay is
// complete's nil check. Pooled like the trees: the last ack is the unique
// release point, every root having dropped its pointer before acking.
type batchAck struct {
	pending atomic.Int64
	done    func()
}

var batchAckPool = sync.Pool{New: func() any { return new(batchAck) }}

// ack resolves one root of the batch; the last one recycles the countdown
// and fires done.
func (b *batchAck) ack() {
	if b.pending.Add(-1) == 0 {
		done := b.done
		b.done = nil
		batchAckPool.Put(b)
		done()
	}
}

// logShards is the shard count of the hot per-root counters (power of two).
const logShards = 16

// rootShard is one padded shard of the root log: three monotonic counters
// on their own cache line, so roots on different shards never contend.
type rootShard struct {
	started   atomic.Int64 // roots created (external arrivals)
	completed atomic.Int64 // roots whose tree completed
	nanos     atomic.Int64 // summed total sojourn of completed roots
	_         [5]int64     // pad to a 64-byte line
}

// rootLog is the single hot-path account of external tuples: one sharded
// add when a root starts, two on the shard's own line when it completes.
// Everything else is derived: external arrivals and per-interval sojourn
// sums are differences between folds (the drainer keeps the previous fold
// under its own lock), and the pending count is started minus completed.
// Stop's drain is signalled, not polled: it arms Run.draining, and from
// then on each completion — one atomic load on the hot path until then —
// reads pending and wakes the drain when it reads zero. What is still
// pending at the drain's deadline is the stranded count. All counters are
// monotonic, so no drain ever races a record.
type rootLog struct {
	shards [logShards]rootShard
}

// startN counts a whole source batch in one add. The start shard need not
// match the trees' completion shards: started and completed are
// independent monotonic sums.
func (c *rootLog) startN(shard uint32, n int64) {
	c.shards[shard%logShards].started.Add(n)
}

func (c *rootLog) complete(shard uint32, sojourn time.Duration) {
	s := &c.shards[shard%logShards]
	s.completed.Add(1)
	s.nanos.Add(int64(sojourn))
}

// totals folds the shards into cumulative counts.
func (c *rootLog) totals() (started, completed, nanos int64) {
	for i := range c.shards {
		started += c.shards[i].started.Load()
		completed += c.shards[i].completed.Load()
		nanos += c.shards[i].nanos.Load()
	}
	return started, completed, nanos
}

// pending reports in-flight roots. All completed counters are read before
// any started counter: every observed completion's start (which preceded
// it) is then also observed, so concurrency can only overestimate — Stop's
// drain check stays conservative.
func (c *rootLog) pending() (n int64) {
	for i := range c.shards {
		n -= c.shards[i].completed.Load()
	}
	for i := range c.shards {
		n += c.shards[i].started.Load()
	}
	return n
}
