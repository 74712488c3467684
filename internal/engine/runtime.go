package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drs-repro/drs/internal/metrics"
	"github.com/drs-repro/drs/internal/obs"
)

// ErrQuiesceTimeout is the cause Stop wraps when in-flight tuples have not
// drained within RunConfig.QuiesceTimeout.
var ErrQuiesceTimeout = errors.New("engine: quiesce timeout; tuples still in flight")

// ErrStopped is returned for operations on a stopped run.
var ErrStopped = errors.New("engine: topology stopped")

// RunConfig parameterizes Start.
type RunConfig struct {
	// Alloc maps bolt name to executor count. Every bolt must be present;
	// counts must be in [1, tasks].
	Alloc map[string]int
	// QuiesceTimeout bounds Stop's wait for in-flight tuples to drain.
	// Default 10s.
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
	// crashed is the failure-injection kill switch: the executor checks it
	// at every tuple boundary (a remote drain loop, at every batch
	// boundary) and, when set, strands the unprocessed tail of its
	// in-progress batch for the retirer instead of draining it — a real
	// crash does not get to finish its backlog.
	crashed atomic.Bool
	// after, when non-nil, is closed once the executors this one replaces
	// have exited. A local drain loop waits on it before its first tuple: a
	// displaced executor finishes the tuple it is in (a retiring one, its
	// whole backlog), and the task instance it is inside must not be
	// entered by its successor meanwhile. The
	// queue takes pushes from the moment the route table names it.
	after <-chan struct{}
	// winN and winOver are the open vote window of boltRuntime.noteService:
	// service samples seen, and how many of them exceeded handoffCost.
	winN, winOver int64
	// stranded collects, oldest first, the items the dying drain loop —
	// local or remote — could not serve or hand off. Only that loop writes
	// it; the retirer reads it once the goroutine has exited (done closed).
	stranded []queueItem

	// Remote-binding state; all nil/zero for local executors.
	remote RemoteExecutor
	// sem is the in-flight window: one slot per unacked ProcessBatch.
	sem chan struct{}
	// kill unblocks a drain loop parked on the in-flight window when the
	// executor crashes and the retirer needs the goroutine gone.
	kill     chan struct{}
	killOnce sync.Once
	// failed is set by the executor's first transport failure, which counts
	// it failed and files its self-heal (failRemoteBinding), or by its
	// crash, which is counted already: either way, once.
	failed atomic.Bool
}

// killRemote releases a remote drain loop blocked on its in-flight window.
// No-op for local executors.
func (ex *executor) killRemote() {
	if ex.kill != nil {
		ex.killOnce.Do(func() { close(ex.kill) })
	}
}

// strandRing parks the unhandled ring tail [start, start+count) for the
// retirer. Called only by the executor's own drain loop before it exits.
// Stranded items leave the queue's outstanding count: the retirer's replay
// counts them on the executor they land on.
func (ex *executor) strandRing(ring []queueItem, start, count int) {
	if count <= 0 {
		return
	}
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

	mu      sync.Mutex // serializes route swaps and Stop's shutdown
	stopped atomic.Bool
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
		r.installExecutors(br, cfg.Alloc[t.bolts[i].name], nil)
	}
	for si, sr := range r.spouts {
		for inst := 0; inst < sr.spec.instances; inst++ {
			spout := sr.spec.factory(inst)
			if spout == nil {
				r.shutdownExecutors()
				return nil, fmt.Errorf("engine: spout %q: factory returned nil for instance %d", sr.spec.name, inst)
			}
			r.wg.Add(1)
			go r.runSpout(si, inst, spout)
		}
	}
	return r, nil
}

// installExecutors builds a fresh executor set for a bolt. On the first
// install tasks are spread round-robin; on a rebalance the new assignment
// is migration-aware — it keeps as many tasks as possible on their current
// executor index (planAssignment), minimizing moved state per the paper's
// future-work direction [42]. The fresh executors start serving once after
// is closed (at once when it is nil).
func (r *Run) installExecutors(br *boltRuntime, n int, after <-chan struct{}) {
	old := br.route.Load()
	rt := &routeTable{execs: make([]*executor, n)}
	if old == nil {
		rt.assign = make([]int, br.spec.tasks)
		for task := 0; task < br.spec.tasks; task++ {
			rt.assign[task] = task % n
		}
	} else {
		rt.assign, _ = planAssignment(old.assign, len(old.execs), n)
	}
	rt.owned = ownedTasks(rt.assign, n)
	for i := 0; i < n; i++ {
		ex := &executor{
			q:     newQueue(),
			probe: metrics.NewExecutorProbe(1),
			done:  make(chan struct{}),
			after: after,
		}
		rt.execs[i] = ex
		r.execWG.Add(1)
		go r.runExecutor(br, ex)
	}
	br.route.Store(rt)
}

// runExecutor is the executor hot loop: it drains its input queue in
// batches (one lock round per batch) and processes each tuple with a
// reusable emitter, so a bolt's fan-out costs one enqueue per destination
// executor. Clock reads follow the probe's Nm sampling stride: only
// sampled tuples are timed (their end stamp also serves as the ack time
// and, at Nm = 1, the next tuple's start). The engine's probes sample
// every tuple.
func (r *Run) runExecutor(br *boltRuntime, ex *executor) {
	defer r.execWG.Done()
	defer close(ex.done)
	if ex.after != nil {
		<-ex.after
	}
	em := newEmitter(r)
	emit := Emit(func(v Values) { em.emit(br.outEdges, v) })
	tracer := r.cfg.Tracer
	var span obs.SpanRecord // reused span scratch; EmitSpan copies it out
	var spare []queueItem   // cleared ring handed back to the queue each round
	nm := ex.probe.SampleStride()
	var sinceSample int64 // stride phase, carried across batches
	var now time.Time     // start-of-service mark, valid only when chained
	chained := false      // now holds the previous timed tuple's end
	for {
		ring, head, n, ok := ex.q.popAll(spare)
		if !ok {
			return
		}
		chained = false // popAll may have blocked; the old end is stale
		mask := len(ring) - 1
		// Probe observations accumulate locally and fold into the shared
		// probe once per batch.
		var sampled, busyNanos int64
		var over int64 // samples longer than handoffCost
		// The queue's outstanding count drops as tuples are served: one by
		// one where routing reads it (a slow bolt), once a batch otherwise —
		// a fast bolt's batch is over in microseconds and only a scrape
		// reads its count. Each drop comes before the ack of the tuple it
		// covers: once no root is pending no executor has anything
		// outstanding.
		step := n
		if br.slow.Load() {
			step = 1
		}
		settled := 0 // tuples of this batch already taken off the count
		for i := 0; i < n; i++ {
			// A crash ends service at the tuple boundary: the batch's
			// unprocessed tail strands for the retirer to replay (one
			// relaxed atomic load per tuple buys the failure domain).
			if ex.crashed.Load() {
				ex.probe.TuplesServed(int64(i), sampled, busyNanos)
				ex.q.served(i - settled)
				ex.strandRing(ring, head+i, n-i)
				return
			}
			it := &ring[(head+i)&mask]
			// A timed duration must cover exactly one tuple: read a fresh
			// start unless the previous tuple was timed too, in which case
			// its end is this tuple's start. Tuples that are neither
			// sampled nor traced pay no clock read at all.
			tree := it.tup.tree
			traced := tracer != nil && tree.trace != 0
			sampleThis := sinceSample+1 == nm
			if (sampleThis || traced) && !chained {
				now = time.Now()
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
				em.flush()
				if sampleThis {
					end = time.Now()
				}
			}
			*it = queueItem{} // release references before handing the ring back
			if i+1-settled == step {
				ex.q.served(step)
				settled = i + 1
			}
			switch {
			case sampleThis:
				sinceSample = 0
				d := end.Sub(now)
				sampled++
				if d > handoffCost {
					over++
				}
				busyNanos += int64(d)
				tree.ack(end)
				now = end
				chained = nm == 1
			case traced:
				sinceSample++
				// The traced ack carries the end stamp so a completing leaf
				// closes its trace exactly at its own service end.
				tree.ack(end)
				now = end
				chained = true
			default:
				sinceSample++
				chained = false
				// The tree reads its own clock in the rare case this ack
				// completes it.
				tree.ackLazy()
			}
		}
		ex.probe.TuplesServed(int64(n), sampled, busyNanos)
		br.noteService(ex, sampled, over)
		spare = ring
	}
}

// runSpout drives one spout instance. A failing spout ends that instance
// only; the topology keeps running on the remaining sources, and the error
// is retained for inspection.
func (r *Run) runSpout(si, instance int, spout Spout) {
	defer r.wg.Done()
	sc := &spoutCtx{run: r, spoutIdx: si, instance: instance,
		shard: treeShardSeq.Add(1), em: newEmitter(r)}
	if err := spout.Run(sc); err != nil && !errors.Is(err, ErrStopped) {
		r.spoutErrCount.Add(1)
		r.spoutLastErr.Store(&err)
	}
}

type spoutCtx struct {
	run      *Run
	spoutIdx int
	instance int
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
// root is built, it fires at once for an empty batch, and a stopped run
// drops the batch *without* firing it — an unprocessed record must never
// advance a durability watermark; it is replayed from the log on the next
// boot. A root whose traces[i] is nonzero inherits that trace id and the
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
	if r.stopped.Load() {
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
		c.em.beginRoot(tree)
		c.em.emit(edges, v)
		c.em.sealRoot(now) // the root "tuple" itself needs no processing
	}
	c.em.pushDests()
}

// Done exposes the stop signal.
func (c *spoutCtx) Done() <-chan struct{} { return c.run.done }

// Instance reports the spout instance index.
func (c *spoutCtx) Instance() int { return c.instance }

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
			Sampled: agg.Sampled, BusyTime: agg.BusyTime,
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
// executor set under a migration-aware route table; then each displaced
// executor retires (retireLocked), draining its own backlog before it exits,
// and only then does the fresh set start serving — so per-task FIFO and task
// exclusivity hold. Rebalance waits for the retiring executors and for
// nothing else.
func (r *Run) Rebalance(alloc map[string]int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped.Load() {
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
		br := r.bolts[i]
		old := br.route.Load()
		retired := make(chan struct{})
		r.installExecutors(br, n, retired)
		for _, ex := range old.execs {
			r.retireLocked(br, ex, false)
		}
		close(retired)
	}
	return nil
}

// Stop shuts the topology down: spouts first, then a drain bounded by
// QuiesceTimeout, then the executors. Safe to call once; later calls return
// ErrStopped. The drain needs no lock — the spouts are gone and stopped
// refuses new swaps — so a Rebalance or a self-heal already under way
// finishes alongside it.
func (r *Run) Stop() error {
	if !r.stopped.CompareAndSwap(false, true) {
		return ErrStopped
	}
	close(r.done)
	r.wg.Wait() // spouts gone; no new roots
	deadline := time.Now().Add(r.cfg.QuiesceTimeout)
	for r.roots.pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	drained := r.roots.pending() == 0
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shutdownExecutors()
	r.execWG.Wait()
	if !drained {
		return fmt.Errorf("engine: stopped with tuples in flight: %w", ErrQuiesceTimeout)
	}
	return nil
}

func (r *Run) shutdownExecutors() {
	for _, br := range r.bolts {
		if rt := br.route.Load(); rt != nil {
			for _, ex := range rt.execs {
				ex.q.close()
				// A remote drain loop may be parked on its in-flight
				// window behind a wedged transport; release it so Stop
				// cannot hang (the drain already decided the outcome).
				ex.killRemote()
			}
		}
	}
}
