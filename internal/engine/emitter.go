package engine

import (
	"sync/atomic"
	"time"
)

// popBatchSize bounds how many queued tuples an executor moves out of its
// input queue per lock round.
const popBatchSize = 256

// destBatch accumulates the tuples one emit scope routed to one executor.
type destBatch struct {
	ex    *executor
	to    int // destination bolt index, for crash re-routing
	items []queueItem
}

// emitterSeq staggers the shuffle cursors of successive emitters so they do
// not all start at task 0.
var emitterSeq atomic.Uint64

// emitter is the goroutine-local fan-out buffer of one producer (an
// executor or a spout instance). Within one emit scope — a bolt's Process
// call or a spout's Emit — every emitted child is routed immediately but
// enqueued lazily: flush groups the children by destination executor and
// delivers each group with a single batched enqueue, so a fan-out of N
// costs one lock round per destination executor instead of N.
//
// The emitter also owns a private shuffle round-robin cursor per
// destination bolt, so routing into a fast bolt never touches shared
// state; into a slow one the cursor is where leastLoaded starts looking.
type emitter struct {
	r        *Run
	tree     *ackTree // tree of the tuple currently being processed
	handoff  int64    // wall stamp copied onto buffered children (tracing)
	children int      // tuples buffered across dests
	rootMark int      // children count when the current root scope opened
	ndests   int      // live prefix of dests
	dests    []destBatch
	cursors  []uint64 // per destination bolt shuffle cursor
}

func newEmitter(r *Run) *emitter {
	em := &emitter{r: r, cursors: make([]uint64, len(r.bolts))}
	seed := emitterSeq.Add(1)
	for i := range em.cursors {
		em.cursors[i] = seed
	}
	return em
}

// begin opens an emit scope for one tuple's processing.
func (em *emitter) begin(tree *ackTree) { em.tree = tree }

// emit routes one payload along the given edges whose stream matches.
// A leading streamTag (from Emit.To) selects the stream and is stripped
// before delivery. Children are buffered until flush.
func (em *emitter) emit(edges []int, v Values) {
	if em.tree == nil {
		return
	}
	r := em.r
	stream := ""
	if len(v) > 0 {
		if tag, ok := v[0].(streamTag); ok {
			stream = string(tag)
			v = v[1:]
		}
	}
	for _, ei := range edges {
		e := &r.topo.edges[ei]
		if e.stream != stream {
			continue
		}
		br := r.bolts[e.to]
		rt := br.route.Load()
		switch e.kind {
		case GroupShuffle:
			c := em.cursors[e.to]
			em.cursors[e.to]++
			task := int(c % uint64(br.spec.tasks))
			if br.slow.Load() {
				task = em.leastLoaded(rt, c)
			}
			em.add(e.to, rt, task, v)
		case GroupFields:
			em.add(e.to, rt, int(e.key(v)%uint64(br.spec.tasks)), v)
		}
	}
}

// shuffleScan bounds how many executors one shuffle decision compares: all
// of a bolt's for k <= 4, the next four in cursor order above that
// (a full scan at k = 10 cost the vld pipeline a fifth of its throughput).
const shuffleScan = 4

// leastLoaded picks the task a shuffle tuple goes to when the destination
// bolt is slow: of the next shuffleScan executors from cursor c, the one
// with the least outstanding work — its queue's count plus what this
// emitter has buffered for it in the open scope and not pushed yet, without
// which a whole EmitBatch would see one stale minimum and land on it — and
// then one of the tasks that executor owns. Ties keep cursor order, so idle
// executors are dealt round-robin exactly as before. This is what makes
// k private queues serve like the one k-server station the model assumes:
// a tuple no longer waits behind a busy executor while its sibling idles.
func (em *emitter) leastLoaded(rt *routeTable, c uint64) int {
	k := len(rt.execs)
	at := int(c % uint64(k))
	best, bestLoad := at, int64(-1)
	for range min(k, shuffleScan) {
		ex := rt.execs[at]
		load := ex.q.out.Load()
		for i := 0; i < em.ndests; i++ {
			if em.dests[i].ex == ex {
				load += int64(len(em.dests[i].items))
				break
			}
		}
		if bestLoad < 0 || load < bestLoad {
			best, bestLoad = at, load
			if load == 0 {
				break
			}
		}
		if at++; at == k {
			at = 0
		}
	}
	tasks := rt.owned[best]
	return tasks[c%uint64(len(tasks))]
}

// add buffers one child for the executor owning task in rt. The handoff
// stamp is copied unconditionally (one store) but only meaningful when
// the tree is traced: root scopes set it to the batch's arrival stamp
// up front, and a traced bolt hop overwrites its children's stamps with
// the service-end time via stampHandoffs before flushing.
func (em *emitter) add(to int, rt *routeTable, task int, v Values) {
	ex := rt.execs[rt.assign[task]]
	it := queueItem{task: task, tup: Tuple{Values: v, tree: em.tree, handoff: em.handoff}}
	for i := 0; i < em.ndests; i++ {
		if em.dests[i].ex == ex {
			em.dests[i].items = append(em.dests[i].items, it)
			em.children++
			return
		}
	}
	if em.ndests == len(em.dests) {
		em.dests = append(em.dests, destBatch{})
	}
	d := &em.dests[em.ndests]
	em.ndests++
	d.ex = ex
	d.to = to
	d.items = append(d.items[:0], it)
	em.children++
}

// stampHandoffs overwrites the handoff stamp of every buffered child
// with ns — a traced bolt hop's service end, read after Process returned
// but before the children are enqueued, so each child's queue-wait span
// starts exactly at its parent's service end. Only called on traced
// hops, whose emit scope flushes per tuple, so the buffered children are
// exactly the current tuple's.
func (em *emitter) stampHandoffs(ns int64) {
	for i := 0; i < em.ndests; i++ {
		items := em.dests[i].items
		for j := range items {
			items[j].tup.handoff = ns
		}
	}
}

// flush closes the emit scope of a processed tuple: it registers all
// buffered children on the processing tree (before any enqueue, so a
// partial delivery can never complete the tree early), then hands each
// destination executor its batch in one enqueue.
func (em *emitter) flush() {
	if em.children > 0 {
		em.tree.fork(em.children)
		em.pushDests()
	}
	em.tree = nil
}

// beginRoot opens the emit scope of a fresh root whose pending count will
// be installed by sealRoot. Several root scopes may accumulate into the
// same destination batches before one pushDests delivers them all
// (EmitBatch's source micro-batching).
func (em *emitter) beginRoot(tree *ackTree) {
	em.tree = tree
	em.rootMark = em.children
}

// sealRoot closes a root scope: the tree's pending count is set to the
// scope's child count directly — none of its children are enqueued yet, so
// no ack can race — skipping the root's own fork/ack round trip. A
// childless root (no subscribers) completes on the spot.
func (em *emitter) sealRoot(now time.Time) {
	tree := em.tree
	em.tree = nil
	n := em.children - em.rootMark
	if n == 0 {
		tree.complete(now)
		return
	}
	tree.pending.Store(int64(n))
}

// pushDests delivers every buffered destination batch with one enqueue
// each. A closed destination queue means a retired or crashed executor, or
// shutdown: the batch reroutes through the bolt's refreshed route table
// (Run.replay) — every swap installs the successor before it closes the
// displaced queue, so a reload observes the successor at once — and during
// shutdown its trees resolve on the spot. A reroute is not a replay and
// does not count in Replayed. Items carry their own tree reference, so
// batches may mix several roots' children.
func (em *emitter) pushDests() {
	for i := 0; i < em.ndests; i++ {
		d := &em.dests[i]
		d.ex.probe.TuplesArrived(int64(len(d.items)))
		if !d.ex.q.pushBatch(d.items) {
			em.r.replay(em.r.bolts[d.to], d.items)
		}
		clear(d.items) // release payload references; keep capacity
		d.items = d.items[:0]
		d.ex = nil
	}
	em.children = 0
	em.ndests = 0
}
