package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drs-repro/drs/internal/metrics"
	"github.com/drs-repro/drs/internal/obs"
)

// ErrQuiesceTimeout is the Cause of the TimeoutError Stop returns when
// in-flight tuples have not drained by its deadline.
var ErrQuiesceTimeout = errors.New("engine: quiesce timeout; tuples still in flight")

// TimeoutError is Stop's error when the drain's deadline passed with roots
// in flight. Those roots are stranded: the executors are stopped at their
// next tuple boundary and serve nothing more, and no completion callback
// fires for them. A tuple already in service at the deadline may still
// finish it, so a later RootTotals can show up to one completion per
// executor more. errors.Is(err, ErrQuiesceTimeout) holds.
type TimeoutError struct {
	// Name is the operation that timed out.
	Name string
	// MaxTime is the drain's budget: from the Stop call to its deadline.
	MaxTime time.Duration
	// Cause is ErrQuiesceTimeout.
	Cause error
	// Stranded counts the roots in flight at the deadline.
	Stranded int64
}

// Error names the operation, its budget, the stranded count and the cause.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("%s timed out (maxTime=%v), %d roots stranded: %v", e.Name, e.MaxTime, e.Stranded, e.Cause)
}

// Unwrap returns the cause, ErrQuiesceTimeout; errors.Is calls it through
// this interface.
func (e *TimeoutError) Unwrap() error { return e.Cause }

var _ interface{ Unwrap() error } = (*TimeoutError)(nil)

// ErrStopped is returned for operations on a stopped run.
var ErrStopped = errors.New("engine: topology stopped")

// RunConfig parameterizes Start.
type RunConfig struct {
	// Alloc maps bolt name to executor count. Every bolt must be present;
	// counts must be in [1, tasks].
	Alloc map[string]int
	// QuiesceTimeout bounds Stop's wait for in-flight tuples to drain
	// (StopBy takes its deadline from the caller instead). Default 10s.
	QuiesceTimeout time.Duration
	// DecisionLog, when set, receives engine self-heal events (a failed
	// remote binding swapped for a local replacement). Emission happens on
	// the heal path, never per tuple.
	DecisionLog *obs.Log
	// Tracer, when set, receives latency spans for roots whose trees carry
	// a sampled trace id (see TracedBatchSource): per-hop queue-wait and
	// service segments, remote shuttle segments, and the closing root
	// span. Untraced tuples pay one branch per hop; sampled-out roots pay
	// nothing here at all (sampling is decided at the source).
	Tracer *obs.Tracer
}

// executor is one processor: a goroutine draining an input queue, either
// into local Process calls or into a remote transport (see remote.go).
type executor struct {
	q     *queue
	probe *metrics.ExecutorProbe
	done  chan struct{}
	// winN and winOver are the open vote window of boltRuntime.noteService:
	// service samples seen, and how many of them exceeded handoffCost.
	winN, winOver int64
	// stranded collects, oldest first, the items the stopped drain loop —
	// local or remote — could not serve or hand off. Only that loop writes
	// it; install reads it once the goroutine has exited (done closed).
	stranded []queueItem

	// Remote-binding state; all nil/zero for local executors.
	remote RemoteExecutor
	// sem is the in-flight window: one slot per unacked ProcessBatch.
	sem chan struct{}
	// kill unblocks a drain loop parked on the in-flight window when the
	// executor stops.
	kill chan struct{}
	// failed is set by the executor's first transport failure, which counts
	// it failed and files its self-heal (failRemoteBinding), or by its
	// crash, which is counted already: either way, once. What a failed
	// executor leaves behind counts in Replayed.
	failed atomic.Bool
}

// newExecutor builds an executor that is not running yet (install starts
// it): local when remote is nil, a remote drain loop's state otherwise.
func newExecutor(probe *metrics.ExecutorProbe, remote RemoteExecutor) *executor {
	ex := &executor{q: newQueue(), probe: probe, done: make(chan struct{}), remote: remote}
	if remote != nil {
		ex.sem = make(chan struct{}, RemoteInflight)
		ex.kill = make(chan struct{})
	}
	return ex
}

// stop flips the executor's stop switch: its drain loop ends at its next
// tuple boundary (a remote one, at its next batch boundary, or at once if
// it is parked on its queue or its in-flight window) and strands what it
// has not served. The queue stays open until the executor has exited, so
// a tuple still in service — a self-looping bolt's — can emit into it.
func (ex *executor) stop() {
	if ex.q.halt() && ex.kill != nil {
		close(ex.kill)
	}
}

// strandRing parks the unhandled ring tail [start, start+count) for the
// handover. Called only by the executor's own drain loop before it exits.
// Stranded items leave the queue's outstanding count: install counts
// them again on the executor they land on.
func (ex *executor) strandRing(ring []queueItem, start, count int) {
	mask := len(ring) - 1
	for i := 0; i < count; i++ {
		ex.stranded = append(ex.stranded, ring[(start+i)&mask])
	}
	ex.q.served(count)
}

// strandPin parks a pinned batch that was never handed to the transport.
func (ex *executor) strandPin(pin *pinBatch) {
	ex.stranded = append(ex.stranded, pin.items...)
	ex.q.served(len(pin.items))
	pin.put()
}

// routeTable is the immutable task->executor assignment of one bolt,
// swapped atomically on rebalance.
type routeTable struct {
	execs  []*executor
	assign []int   // task -> index into execs
	owned  [][]int // index into execs -> its tasks, ascending; the inverse of assign
}

// ownedTasks inverts a task->executor assignment over n executors. Every
// executor owns at least one task (n <= tasks, and both the first install
// and planAssignment fill every quota).
func ownedTasks(assign []int, n int) [][]int {
	owned := make([][]int, n)
	for task, e := range assign {
		owned[e] = append(owned[e], task)
	}
	return owned
}

// handoffCost is the service time above which a bolt's shuffle traffic is
// routed by backlog rather than by the cursor alone: about what it costs
// to wake a parked executor. Below it the scan buys nothing — the sibling
// would have been free by the time the tuple was handed over — and
// steering every tuple at the emptiest queue turns each push into a
// wake-up (DESIGN.md §7, "station discipline").
const handoffCost = 10 * time.Microsecond

// boltRuntime is the running state of one bolt. Shuffle round-robin
// cursors live in each emitter, not here, so routing is contention-free.
type boltRuntime struct {
	spec      boltSpec
	instances []Bolt // one per task; owned by whichever executor holds the task
	route     atomic.Pointer[routeTable]
	// slow is set while most of the bolt's sampled service times are above
	// handoffCost. Emitters read it on every shuffle emit, so it sits
	// beside route and is stored only when it flips (noteService).
	slow     atomic.Bool
	outEdges []int
	errCount atomic.Int64
	lastErr  atomic.Pointer[error]
	// Cumulative per-bolt tuple counters, folded from the probes by
	// DrainInterval. Probes reset on rebalance (fresh executors get fresh
	// probes), so monotonic exports must accumulate here, off the hot
	// path, instead of reading the probes directly.
	cumArrivals atomic.Int64
	cumServed   atomic.Int64
}

// serviceWindow is how many service samples an executor gathers between
// votes on its bolt's slow flag.
const serviceWindow = 16

// noteService adds service samples, over of them longer than handoffCost,
// to the executor's vote window; a full window sets the bolt's slow flag to
// what most of it says. A majority, not a mean: on a busy box a tuple that
// is descheduled mid-service reads as milliseconds, and one such sample in a
// batch of no-ops would otherwise flip the flag there and back (it did: a
// third of the vld benchmark's emits took the slow route). Until the first
// full window the bolt routes by cursor. Called only by the executor's own
// drain loop, or the transport's serialized callbacks for a remote one.
func (br *boltRuntime) noteService(ex *executor, samples, over int64) {
	ex.winN += samples
	ex.winOver += over
	if ex.winN < serviceWindow {
		return
	}
	slow := 2*ex.winOver > ex.winN
	ex.winN, ex.winOver = 0, 0
	if slow != br.slow.Load() {
		br.slow.Store(slow)
	}
}

// spoutRuntime is one spout's running state.
type spoutRuntime struct {
	spec     spoutSpec
	outEdges []int
}

// Run is a started topology.
type Run struct {
	topo *Topology
	cfg  RunConfig

	bolts  []*boltRuntime
	spouts []*spoutRuntime

	roots rootLog
	// draining is set once Stop's drain waits for the in-flight roots: from
	// then on each root completion checks whether it was the last and, if
	// so, clears it and closes quiet, which wakes the drain.
	draining atomic.Bool
	quiet    chan struct{}

	spoutErrCount atomic.Int64
	spoutLastErr  atomic.Pointer[error]

	// Failure-domain accounting: executors crashed or failed by their
	// transport, and the tuples they left behind for re-delivery.
	execFailures atomic.Int64
	replayed     atomic.Int64

	drainMu   sync.Mutex // serializes DrainInterval; guards the last* fields
	lastDrain time.Time
	// last root-log fold of the previous drain; intervals are differences.
	lastStarted   int64
	lastCompleted int64
	lastNanos     int64

	mu      sync.Mutex  // serializes route swaps and Stop's shutdown
	stopped atomic.Bool // Stop has begun: the spouts stop
	shut    atomic.Bool // Stop shut the executors down (set under mu): no more swaps
	done    chan struct{}
	wg      sync.WaitGroup // spout goroutines
	execWG  sync.WaitGroup // executor goroutines
}

// Start launches the topology.
func (t *Topology) Start(cfg RunConfig) (*Run, error) {
	if cfg.QuiesceTimeout <= 0 {
		cfg.QuiesceTimeout = 10 * time.Second
	}
	r := &Run{
		topo:      t,
		cfg:       cfg,
		done:      make(chan struct{}),
		quiet:     make(chan struct{}),
		lastDrain: time.Now(),
	}
	r.bolts = make([]*boltRuntime, len(t.bolts))
	for i, spec := range t.bolts {
		n, ok := cfg.Alloc[spec.name]
		if !ok {
			return nil, fmt.Errorf("engine: no allocation for bolt %q", spec.name)
		}
		if n < 1 || n > spec.tasks {
			return nil, fmt.Errorf("engine: bolt %q: %d executors out of [1, %d tasks]", spec.name, n, spec.tasks)
		}
		br := &boltRuntime{spec: spec, instances: make([]Bolt, spec.tasks)}
		for task := 0; task < spec.tasks; task++ {
			br.instances[task] = spec.factory(task)
			if br.instances[task] == nil {
				return nil, fmt.Errorf("engine: bolt %q: factory returned nil for task %d", spec.name, task)
			}
		}
		r.bolts[i] = br
	}
	r.spouts = make([]*spoutRuntime, len(t.spouts))
	for i, spec := range t.spouts {
		r.spouts[i] = &spoutRuntime{spec: spec}
	}
	for ei, e := range t.edges {
		if e.fromSpout {
			r.spouts[e.from].outEdges = append(r.spouts[e.from].outEdges, ei)
		} else {
			r.bolts[e.from].outEdges = append(r.bolts[e.from].outEdges, ei)
		}
	}
	// Spin up executors per the initial allocation, then the spouts.
	for i, br := range r.bolts {
		r.install(br, newRoute(br, cfg.Alloc[t.bolts[i].name]))
	}
	for si, sr := range r.spouts {
		for inst := 0; inst < sr.spec.instances; inst++ {
			spout := sr.spec.factory(inst)
			if spout == nil {
				r.shutdownExecutors()
				return nil, fmt.Errorf("engine: spout %q: factory returned nil for instance %d", sr.spec.name, inst)
			}
			r.wg.Add(1)
			go r.runSpout(si, spout)
		}
	}
	return r, nil
}

// newRoute builds a fresh, not yet running executor set of n for a bolt.
// On the first install tasks are spread round-robin; on a rebalance the new
// assignment is migration-aware — it keeps as many tasks as possible on
// their current executor index (planAssignment), minimizing moved state per
// the paper's future-work direction [42].
func newRoute(br *boltRuntime, n int) *routeTable {
	rt := &routeTable{execs: make([]*executor, n)}
	if old := br.route.Load(); old == nil {
		rt.assign, _ = naiveAssignment(make([]int, br.spec.tasks), n)
	} else {
		rt.assign, _ = planAssignment(old.assign, len(old.execs), n)
	}
	rt.owned = ownedTasks(rt.assign, n)
	for i := range rt.execs {
		rt.execs[i] = newExecutor(metrics.NewExecutorProbe(), nil)
	}
	return rt
}

// withExecutor returns a copy of rt whose slot exec holds ex; the task
// assignment is shared, untouched.
func (rt *routeTable) withExecutor(exec int, ex *executor) *routeTable {
	next := &routeTable{execs: slices.Clone(rt.execs), assign: rt.assign, owned: rt.owned}
	next.execs[exec] = ex
	return next
}

// install makes next the bolt's route table — the one step behind Start,
// Rebalance, BindExecutor, FailExecutor and the remote self-heal. Every
// executor of the current table that next displaces stops at its tuple
// (remote: batch) boundary, and install waits for all of them to exit: it
// waits on no executor's backlog, only on the tuples they are in. Then each
// displaced queue closes, and what its executor stranded, then what the
// queue still holds, lands oldest first in the queue of the executor next
// assigns its task, so each task keeps its arrival order. Only then is next published
// and its fresh executors started: no two executors are ever inside one
// task instance, and no executor waits on another. An emit that bounces
// off a closed queue meanwhile reroutes once next is published
// (Run.replay). What a failed executor leaves counts in Replayed; a healthy
// handoff counts nowhere. Batches a remote executor already handed to its
// transport complete there and are not handed over, so nothing is served
// twice. Arrival probes are not re-counted. Caller holds r.mu, or owns the
// run (Start).
func (r *Run) install(br *boltRuntime, next *routeTable) {
	var cur, gone []*executor
	if rt := br.route.Load(); rt != nil {
		cur = rt.execs
	}
	for _, ex := range cur {
		if !slices.Contains(next.execs, ex) {
			ex.stop()
			gone = append(gone, ex)
		}
	}
	// No displaced queue closes while a displaced executor is still in
	// service: a self-looping bolt's tuple may emit into a sibling's queue,
	// and a push that bounced there would retry on the old table, which is
	// not replaced before that executor exits.
	for _, ex := range gone {
		<-ex.done
	}
	backlog := make([][]queueItem, len(next.execs))
	for _, ex := range gone {
		left := append(ex.stranded, ex.q.seize()...)
		if ex.failed.Load() {
			r.replayed.Add(int64(len(left)))
		}
		for _, it := range left {
			e := next.assign[it.task]
			backlog[e] = append(backlog[e], it)
		}
	}
	for e, items := range backlog {
		next.execs[e].q.pushBatch(items)
	}
	br.route.Store(next)
	for _, ex := range next.execs {
		if slices.Contains(cur, ex) {
			continue
		}
		r.execWG.Add(1)
		if ex.remote != nil {
			go r.runRemoteExecutor(br, ex)
		} else {
			go r.runExecutor(br, ex)
		}
	}
}

// runExecutor is the executor hot loop: it drains its input queue in
// batches (one lock round per batch) and processes each tuple with a
// reusable emitter. A fast bolt's popped batch is one emit scope: each
// untraced tuple's children are forked onto its tree as its Process call
// returns (emitter.seal) and stay buffered, and the batch delivers them
// with one enqueue per destination executor when it ends or emitBatchCap
// children are buffered. Three cases deliver per tuple instead: a slow
// bolt's tuples, whose children must not wait behind a sibling's
// service; a traced tuple, which first delivers what earlier tuples
// buffered, so its handoff stamps and fork see only its own children; and
// a stop, which delivers the served tuples' children before the tail
// strands. Every untraced tuple is timed with one monotonic clock read:
// the clock is read when popAll returns, and each tuple's end stamp —
// the start plus the monotonic time since it — is its ack time and the
// next tuple's start. Such a stamp is only ever subtracted from; a traced
// tuple reads the wall clock, because its stamps become span bounds.
func (r *Run) runExecutor(br *boltRuntime, ex *executor) {
	defer r.execWG.Done()
	defer close(ex.done)
	em := newEmitter(r)
	emit := Emit(func(v Values) { em.emit(br.outEdges, v) })
	tracer := r.cfg.Tracer
	var span obs.SpanRecord // reused span scratch; EmitSpan copies it out
	var spare []queueItem   // cleared ring handed back to the queue each round
	for {
		ring, head, n, ok := ex.q.popAll(spare)
		if !ok {
			return
		}
		now := time.Now() // popAll may have blocked: a fresh start
		mask := len(ring) - 1
		// Served tuples leave the queue's outstanding count and fold into
		// the shared probe step at a time: one by one where routing reads
		// the count (a slow bolt), and where an interval that ends
		// mid-batch must see each service; once a batch otherwise — a fast
		// bolt's batch is over in microseconds and only a scrape reads its
		// count. Each drop comes before the ack of the tuple it covers:
		// once no root is pending no executor has anything outstanding.
		var busyNanos int64 // service of the tuples not folded yet
		var over int64      // tuples served in longer than handoffCost
		slow := br.slow.Load()
		step := n
		if slow {
			step = 1
		}
		settled := 0 // tuples of this batch already folded and taken off the count
		for i := 0; i < n; i++ {
			// A stop ends service at the tuple boundary: the children of
			// the tuples served so far are forked onto their trees and go
			// out, and the batch's unprocessed tail strands for install
			// to hand over (one relaxed atomic load per tuple).
			if ex.q.halted.Load() {
				em.pushDests()
				ex.probe.TuplesServed(int64(i-settled), busyNanos)
				ex.q.served(i - settled)
				ex.strandRing(ring, head+i, n-i)
				return
			}
			it := &ring[(head+i)&mask]
			tree := it.tup.tree
			traced := tracer != nil && tree.trace != 0
			if traced {
				em.pushDests()
			}
			em.begin(tree)
			if err := br.instances[it.task].Process(it.tup, emit); err != nil {
				br.errCount.Add(1)
				heldErr := err // escapes only on the error path
				br.lastErr.Store(&heldErr)
			}
			var end time.Time
			if traced {
				// The service end is read before the children are enqueued:
				// it is their queue-wait start (stampHandoffs), and both hop
				// spans must be in the tracer's rings before any enqueued
				// child can complete the root downstream — the assembler
				// counts on segment emission happening-before the root span.
				end = time.Now()
				startNS, endNS := now.UnixNano(), end.UnixNano()
				tree.noteEnd(endNS)
				em.stampHandoffs(endNS)
				span = obs.SpanRecord{Trace: tree.trace, Kind: obs.SpanQueue, Bolt: br.spec.name,
					Task: it.task, StartNS: it.tup.handoff, DurNS: startNS - it.tup.handoff}
				tracer.EmitSpan(&span)
				span = obs.SpanRecord{Trace: tree.trace, Kind: obs.SpanService, Bolt: br.spec.name,
					Task: it.task, StartNS: startNS, DurNS: endNS - startNS}
				tracer.EmitSpan(&span)
				em.flush()
			} else {
				em.seal()
				if slow || em.children >= emitBatchCap {
					em.pushDests()
				}
				end = now.Add(time.Since(now))
			}
			*it = queueItem{} // release references before handing the ring back
			d := end.Sub(now)
			if d > handoffCost {
				over++
			}
			busyNanos += int64(d)
			if i+1-settled == step {
				ex.probe.TuplesServed(int64(step), busyNanos)
				ex.q.served(step)
				settled, busyNanos = i+1, 0
			}
			// The ack carries the end stamp so a completing leaf closes its
			// trace exactly at its own service end.
			tree.ack(end)
			now = end
		}
		em.pushDests()
		br.noteService(ex, int64(n), over)
		spare = ring
	}
}

// runSpout drives one spout instance. A failing spout ends that instance
// only; the topology keeps running on the remaining sources, and the error
// is retained for inspection.
func (r *Run) runSpout(si int, spout Spout) {
	defer r.wg.Done()
	sc := &spoutCtx{run: r, spoutIdx: si, shard: treeShardSeq.Add(1), em: newEmitter(r)}
	if err := spout.Run(sc); err != nil && !errors.Is(err, ErrStopped) {
		r.spoutErrCount.Add(1)
		r.spoutLastErr.Store(&err)
	}
}

type spoutCtx struct {
	run      *Run
	spoutIdx int
	shard    uint32 // root-log shard for batch start accounting
	em       *emitter
	one      [1]Values // Emit's batch of one
}

// Emit injects one external tuple: a batch of one.
func (c *spoutCtx) Emit(v Values) {
	c.one[0] = v
	c.inject(c.one[:], nil, nil)
	c.one[0] = nil
}

// EmitBatch injects a batch of external tuples (source micro-batching: a
// spout reading a partitioned log hands the engine tens of tuples per call
// and pays the per-enqueue costs once).
func (c *spoutCtx) EmitBatch(vs []Values) { c.inject(vs, nil, nil) }

// inject is the one body that builds roots: each payload becomes its own
// processing tree, the batch shares one clock read and — the point — one
// enqueue per destination executor. The whole batch is counted as started
// before any root can complete (a childless root completes inside its own
// seal). When done is non-nil it fires exactly once, after every root
// completes: the countdown is installed at the batch size before the first
// root is built, and it fires at once for an empty batch. A batch popped
// after Stop began is injected like any other: Stop reads the books only
// once its spouts have returned, so its drain runs the batch or strands
// it, counted, and done never fires for a record that did not complete. A
// root whose traces[i] is nonzero inherits that trace id and the
// batch's arrival wall stamp, which doubles as the emitter handoff, so a
// traced root's first hop measures queue wait from the moment the batch
// left the source.
func (c *spoutCtx) inject(vs []Values, traces []uint64, done func()) {
	r := c.run
	if len(vs) == 0 {
		if done != nil {
			done()
		}
		return
	}
	var b *batchAck
	if done != nil {
		b = batchAckPool.Get().(*batchAck)
		b.done = done
		b.pending.Store(int64(len(vs)))
	}
	now := time.Now()
	c.em.handoff = now.UnixNano()
	edges := r.spouts[c.spoutIdx].outEdges
	r.roots.startN(c.shard, int64(len(vs)))
	for i, v := range vs {
		tree := newRootFor(r, now)
		tree.batch = b
		if traces != nil && traces[i] != 0 {
			tree.trace = traces[i]
			tree.arrivedNS = c.em.handoff
		}
		c.em.begin(tree)
		c.em.emit(edges, v)
		c.em.sealRoot(now) // the root "tuple" itself needs no processing
	}
	c.em.pushDests()
}

// Done exposes the stop signal.
func (c *spoutCtx) Done() <-chan struct{} { return c.run.done }

// Allocation reports the current executor count per bolt.
func (r *Run) Allocation() map[string]int {
	out := make(map[string]int, len(r.bolts))
	for _, br := range r.bolts {
		out[br.spec.name] = len(br.route.Load().execs)
	}
	return out
}

// QueueLengths reports each bolt's backlog: the tuples queued at its
// executors plus the ones in service (on a remote-bound executor, the ones
// shipped and not yet answered). It reads the executors' outstanding
// counters and takes no lock, so a scrape never contends with the data
// plane; the sum is of k independent reads, not a snapshot.
func (r *Run) QueueLengths() map[string]int {
	out := make(map[string]int, len(r.bolts))
	for _, br := range r.bolts {
		total := 0
		for _, ex := range br.route.Load().execs {
			total += ex.q.outstanding()
		}
		out[br.spec.name] = total
	}
	return out
}

// Errors reports the bolt's processing error count and last error.
func (r *Run) Errors(bolt string) (int64, error) {
	br := r.boltByName(bolt)
	if br == nil {
		return 0, errUnknownBolt(bolt)
	}
	var last error
	if p := br.lastErr.Load(); p != nil {
		last = *p
	}
	return br.errCount.Load(), last
}

// LoadSkew reports, for one bolt, the ratio of the busiest executor's
// cumulative served-tuple count to the mean across its executors (1.0 =
// perfectly balanced). The DRS model *assumes* per-operator load balance
// (§III-A); this diagnostic lets an operator check the assumption — e.g. a
// fields grouping with a hot key will show skew that the M/M/k model
// cannot see. Shuffle traffic into a bolt slower than a hand-off is
// balanced by outstanding work, not by count (emitter.leastLoaded), so its
// executors' served counts differ when the executors do — a straggling
// worker, an unlucky run of long services — and a ratio somewhat above 1
// there is the routing working, not a fault; a hot fields key still reads
// as the multiple it is. Counts are cumulative since each executor
// started, so call it between rebalances.
func (r *Run) LoadSkew(bolt string) (float64, error) {
	br := r.boltByName(bolt)
	if br == nil {
		return 0, errUnknownBolt(bolt)
	}
	rt := br.route.Load()
	total, maxServed := int64(0), int64(0)
	for _, ex := range rt.execs {
		served := ex.probe.ServedTotal()
		total += served
		if served > maxServed {
			maxServed = served
		}
	}
	if total == 0 {
		return 1, nil
	}
	mean := float64(total) / float64(len(rt.execs))
	return float64(maxServed) / mean, nil
}

// SpoutErrors reports how many spout instances failed and the last failure.
func (r *Run) SpoutErrors() (int64, error) {
	var last error
	if p := r.spoutLastErr.Load(); p != nil {
		last = *p
	}
	return r.spoutErrCount.Load(), last
}

// Completions reports the cumulative completed-tuple count and mean total
// sojourn time.
func (r *Run) Completions() (count int64, meanSojourn time.Duration) {
	_, n, nanos := r.roots.totals()
	if n == 0 {
		return 0, 0
	}
	return n, time.Duration(nanos / n)
}

// BoltNames returns the bolt names in declaration order — the operator
// order of DrainInterval reports and of model allocation vectors.
func (r *Run) BoltNames() []string { return r.topo.BoltNames() }

// DrainInterval collects one measurement interval in measurer form:
// per-bolt probe aggregates (operator level), external arrival count and
// completed sojourns since the previous drain. Concurrent drains are
// serialized; each interval's counters are reported exactly once.
func (r *Run) DrainInterval() metrics.IntervalReport {
	r.drainMu.Lock()
	defer r.drainMu.Unlock()
	now := time.Now()
	started, completed, nanos := r.roots.totals()
	rep := metrics.IntervalReport{
		Duration:         now.Sub(r.lastDrain),
		ExternalArrivals: started - r.lastStarted,
		Ops:              make([]metrics.OpInterval, len(r.bolts)),
		SojournCount:     completed - r.lastCompleted,
		SojournTotal:     time.Duration(nanos - r.lastNanos),
	}
	r.lastDrain = now
	r.lastStarted, r.lastCompleted, r.lastNanos = started, completed, nanos
	for i, br := range r.bolts {
		var agg metrics.ProbeCounters
		for _, ex := range br.route.Load().execs {
			agg.Merge(ex.probe.Drain())
		}
		rep.Ops[i] = metrics.OpInterval{
			Arrivals: agg.Arrivals, Served: agg.Served,
			Sampled: agg.Served, BusyTime: agg.BusyTime,
		}
		br.cumArrivals.Add(agg.Arrivals)
		br.cumServed.Add(agg.Served)
	}
	return rep
}

// RootTotals reports the root log's cumulative external-tuple counters:
// trees started, trees completed, and the summed sojourn nanoseconds of
// the completed ones — the raw series behind /metrics.
func (r *Run) RootTotals() (started, completed, sojournNanos int64) {
	return r.roots.totals()
}

// BoltTotals reports one bolt's cumulative arrived/served tuple counts as
// folded by DrainInterval. Unlike the probes (which reset whenever a
// rebalance installs fresh executors) these are monotonic for the life of
// the run; they advance at DrainInterval granularity.
func (r *Run) BoltTotals(bolt string) (arrivals, served int64, err error) {
	br := r.boltByName(bolt)
	if br == nil {
		return 0, 0, errUnknownBolt(bolt)
	}
	return br.cumArrivals.Load(), br.cumServed.Load(), nil
}

// Rebalance changes executor counts (bolt name -> count) — the paper's
// improved JVM-reusing rebalance, which keeps task state in place. Only the
// bolts whose counts change are touched, and nothing else stops: spouts keep
// injecting and the other bolts keep serving. Each changed bolt gets a fresh
// executor set under a migration-aware route table (install): each
// displaced executor stops at its tuple boundary and its successors start
// with its backlog, so per-task FIFO and task exclusivity hold. Rebalance
// waits for the tuples the displaced executors are in, and for nothing else.
func (r *Run) Rebalance(alloc map[string]int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shut.Load() {
		return ErrStopped // a fresh executor set would outlive Stop's shutdown
	}
	// Validate first: reject before disturbing anything.
	changed := make(map[int]int)
	for i, br := range r.bolts {
		n, ok := alloc[br.spec.name]
		if !ok {
			continue // unchanged bolts may be omitted
		}
		if n < 1 || n > br.spec.tasks {
			return fmt.Errorf("engine: bolt %q: %d executors out of [1, %d tasks]", br.spec.name, n, br.spec.tasks)
		}
		if n != len(br.route.Load().execs) {
			changed[i] = n
		}
	}
	for i, n := range changed {
		r.install(r.bolts[i], newRoute(r.bolts[i], n))
	}
	return nil
}

// Stop is StopBy with a deadline RunConfig.QuiesceTimeout away.
func (r *Run) Stop() error { return r.StopBy(time.Now().Add(r.cfg.QuiesceTimeout)) }

// StopBy shuts the topology down: spouts first, then a drain that ends when
// the last in-flight root completes or at deadline, whichever comes first,
// then the executors. Safe to call once; later calls return ErrStopped.
// The drain needs no lock — the spouts are gone, and swaps are refused
// only once the executors are shut down — so a Rebalance, a placement or a
// self-heal lands alongside it. A drained run waits for its executors to
// exit; at the deadline every executor is stopped at its next tuple
// boundary instead, and StopBy returns a *TimeoutError counting the
// stranded roots without waiting for a tuple still in service.
func (r *Run) StopBy(deadline time.Time) error {
	maxTime := time.Until(deadline)
	if !r.stopped.CompareAndSwap(false, true) {
		return ErrStopped
	}
	close(r.done)
	r.wg.Wait() // spouts gone; no new roots
	// Armed before the read: a completion either sees draining or is
	// counted by the read.
	r.draining.Store(true)
	if r.roots.pending() > 0 {
		select {
		case <-r.quiet:
		case <-time.After(time.Until(deadline)):
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shut.Store(true)
	r.shutdownExecutors()
	if r.roots.pending() == 0 {
		r.execWG.Wait()
		return nil
	}
	return &TimeoutError{Name: "engine drain", MaxTime: maxTime, Cause: ErrQuiesceTimeout, Stranded: r.roots.pending()}
}

// shutdownExecutors stops every executor: an idle executor exits, and a
// busy one — only at Stop's deadline is one busy — stops at its current
// tuple boundary, its backlog stranded. A remote drain loop parked on its
// in-flight window behind a wedged transport is released too, so Stop
// cannot hang (the drain already decided the outcome).
func (r *Run) shutdownExecutors() {
	for _, br := range r.bolts {
		if rt := br.route.Load(); rt != nil {
			for _, ex := range rt.execs {
				ex.stop()
			}
		}
	}
}
