package engine

import (
	"errors"
	"slices"
	"sync"
	"time"

	"github.com/drs-repro/drs/internal/obs"
)

// Remote executor destinations. A bolt's route table normally points every
// task at a local executor — a goroutine draining an in-process queue. This
// file makes the destination pluggable: BindExecutor swaps any route-table
// slot to a RemoteExecutor, a transport that ships tuple batches to an
// executor hosted in another process (the worker daemon) and brings the
// emitted children back. The serve-side engine keeps the whole ack story —
// processing trees, root log, WAL watermark — so accounting is identical
// whether an executor is a goroutine or a machine across the network:
//
//   - outbound: the drain loop pops the executor's queue exactly like the
//     local hot loop, pins each batch (the tuples' trees stay resolvable),
//     and hands it to the transport with a bounded in-flight window;
//   - inbound: the transport's completion callback applies the remotely
//     emitted children through a normal emitter (fork before enqueue, so a
//     partial delivery can never complete a tree early) and acks each input
//     tuple's tree — the same sequence runExecutor performs inline;
//   - failure: a transport error replays the affected batch through the
//     current route table (Run.replay — at-least-once, never
//     ack-without-processing) and self-heals the binding by installing a
//     local replacement (Run.install), which starts with the victim's
//     stranded tail and backlog.
//
// Exactly-once applies at the engine's accounting layer (each tree resolves
// once); the application-level guarantee stays at-least-once: a batch whose
// result frame was lost re-executes, bounded by the in-flight window
// (RemoteInflight batches of RemoteBatchCap tuples per executor).

// RemoteBatchCap bounds how many tuples one ProcessBatch call carries.
const RemoteBatchCap = 256

// RemoteInflight bounds how many ProcessBatch calls may be awaiting their
// completion callback per remote-bound executor. Together with
// RemoteBatchCap it caps the duplicate window of a worker crash: at most
// RemoteInflight × RemoteBatchCap tuples per executor can have been
// processed remotely without their results applied, and only those can
// re-execute after a replay.
const RemoteInflight = 4

// errRemoteProcess is recorded as a bolt's last error when a remote worker
// reports tuple-processing failures in a result batch.
var errRemoteProcess = errors.New("engine: remote executor reported processing errors")

// RemoteItem is one tuple bound for a remote executor: the task index that
// must process it (task-local bolt state lives with the worker) and the
// tuple payload.
type RemoteItem struct {
	// Task is the destination task within the bolt.
	Task int
	// Values is the tuple payload.
	Values Values
	// Traced marks a tuple whose processing tree carries a sampled trace
	// id: the transport ships the flag with the batch and the worker
	// measures this item's queue wait and service time individually,
	// reporting them back through the result's trace block.
	Traced bool
}

// RemoteResult is the outcome of one remotely processed batch.
type RemoteResult struct {
	// Emitted holds, per input item (index-aligned with the ProcessBatch
	// items), the payloads that item's processing emitted, stream tags
	// in-band as produced by Emit.To. It is valid only during the done
	// callback: transports reuse their decode buffers across frames.
	Emitted [][]Values
	// BusyNanos is the batch's summed service time, measured where the
	// CPU burned — on the worker — and folded into the serve-side probe so
	// the measurer's service-time estimate reflects remote execution
	// without the network in it. The served count is the batch's own size.
	BusyNanos int64
	// Errors counts items whose Process call failed on the worker.
	Errors int64
	// TraceIdx lists, in ascending order, the batch indices of items the
	// worker measured individually (those sent with Traced set); TraceWaitNS
	// and TraceServiceNS align with it. The wait is measured from the
	// batch's arrival at the worker to that item's Process start, and the
	// service time is the worker-local Process duration — both on the
	// worker's own clock, so they are clock-skew-free durations. Like
	// Emitted, the slices are valid only during the done callback.
	TraceIdx                    []uint32
	TraceWaitNS, TraceServiceNS []int64
}

// RemoteExecutor ships tuple batches to an executor hosted outside this
// process. Implementations must honor this contract:
//
//   - ProcessBatch either returns a non-nil error — then done is never
//     called and the caller keeps the items — or returns nil and guarantees
//     done is invoked exactly once, possibly before ProcessBatch returns and
//     possibly on a different goroutine (a connection reader).
//   - done callbacks issued by one transport are serialized (never two
//     concurrently), and must not block indefinitely.
//   - ProcessBatch must not block indefinitely: transports enforce their own
//     write deadlines and fail pending batches when the peer dies.
//   - items and the RemoteResult are borrowed: items may be reused by the
//     caller after ProcessBatch returns (encode synchronously), and the
//     result is valid only during the done call.
//   - values must be comparable (implementations are pointers): the engine
//     uses == to make BindExecutor idempotent.
type RemoteExecutor interface {
	ProcessBatch(bolt string, items []RemoteItem, done func(RemoteResult, error)) error
}

// StreamTagValue returns the in-band stream marker Emit.To prefixes to a
// payload, so transports can reconstruct stream-tagged emissions when
// decoding remote results.
func StreamTagValue(stream string) any { return streamTag(stream) }

// StreamTagString reports whether v is a stream marker and, if so, the
// stream name — the encode-side counterpart of StreamTagValue.
func StreamTagString(v any) (string, bool) {
	t, ok := v.(streamTag)
	return string(t), ok
}

// BindExecutor points one of a bolt's route-table slots at a remote
// destination (or back at a local goroutine when remote is nil) through
// FailExecutor's slot-replacement path (replaceExecutor): the victim stops
// at its tuple (remote: batch) boundary and the replacement, inheriting its
// probe, starts with its backlog — so rebinding mid-traffic loses nothing.
// Binding the executor to the RemoteExecutor value it already has is a
// no-op. Note a Rebalance rebuilds a bolt's executors local; callers owning
// a placement re-apply their bindings after every allocation change.
func (r *Run) BindExecutor(bolt string, exec int, remote RemoteExecutor) error {
	_, err := r.replaceExecutor(bolt, exec, remote, false)
	return err
}

// RemoteBound reports how many of a bolt's executors are currently bound to
// remote destinations.
func (r *Run) RemoteBound(bolt string) (int, error) {
	br := r.boltByName(bolt)
	if br == nil {
		return 0, errUnknownBolt(bolt)
	}
	n := 0
	for _, ex := range br.route.Load().execs {
		if ex.remote != nil {
			n++
		}
	}
	return n, nil
}

// pinBatch pins the queue items of one in-flight remote batch — tree
// references included — until the transport's done callback resolves them.
// Pins recycle through a pool so the steady shuttle path allocates nothing:
// the completion handed to the transport is done, the method value of
// complete bound once per pin, reading its per-send context from the fields.
type pinBatch struct {
	items []queueItem
	// r, br, em, ex and sentNS are what complete needs, set by the drain
	// loop before each ProcessBatch and dropped by put.
	r      *Run
	br     *boltRuntime
	em     *emitter
	ex     *executor
	sentNS int64
	done   func(RemoteResult, error)
}

// pinPool has no New: complete reaches put, so a New referring to complete
// would be an initialization cycle. getPin builds a pin on a pool miss.
var pinPool sync.Pool

func getPin() *pinBatch {
	if p, ok := pinPool.Get().(*pinBatch); ok {
		return p
	}
	p := &pinBatch{items: make([]queueItem, 0, RemoteBatchCap)}
	p.done = p.complete
	return p
}

func (p *pinBatch) put() {
	clear(p.items)
	*p = pinBatch{items: p.items[:0], done: p.done}
	pinPool.Put(p)
}

// complete is the transport's done callback for this pin: apply the result,
// then free the window slot. On a transport error the batch replays
// through the bolt's current route table instead — the tuples may have
// been processed remotely (the result was lost), so this is the
// at-least-once re-execution window — and the binding self-heals. Both
// paths put the pin back, so ex is read before either runs.
func (p *pinBatch) complete(res RemoteResult, rerr error) {
	ex := p.ex
	defer func() { <-ex.sem }()
	// A result without exactly one emission list per item would ack trees
	// whose children never came back. The peer is outside input, so such
	// a result fails the batch like a transport error.
	if rerr != nil || len(res.Emitted) != len(p.items) {
		r, br := p.r, p.br
		ex.q.served(len(p.items)) // off the failed binding's books before they land elsewhere
		r.replayed.Add(int64(len(p.items)))
		r.replay(br, p.items)
		p.put()
		r.failRemoteBinding(br, ex)
		return
	}
	p.r.applyRemote(p.br, p.em, ex, p, res, p.sentNS)
}

// runRemoteExecutor is the drain loop of a remote-bound executor: the same
// popAll cadence as the local hot loop, but each batch ships through the
// transport instead of a Process call. The in-flight window (sem) bounds
// unacked batches; the kill channel unblocks the window wait when the
// executor stops while the transport is wedged.
func (r *Run) runRemoteExecutor(br *boltRuntime, ex *executor) {
	defer r.execWG.Done()
	defer close(ex.done)
	// The emitter is touched only inside done callbacks, which the
	// transport serializes; the drain loop itself never uses it.
	em := newEmitter(r)
	tracer := r.cfg.Tracer
	var spare []queueItem
	items := make([]RemoteItem, RemoteBatchCap)
	for {
		ring, head, n, ok := ex.q.popAll(spare)
		if !ok {
			return
		}
		mask := len(ring) - 1
		for base := 0; base < n; {
			// A stop ends the drain at a batch boundary; the unsent
			// remainder strands for install to hand over.
			if ex.q.halted.Load() {
				ex.strandRing(ring, head+base, n-base)
				return
			}
			cnt := n - base
			if cnt > RemoteBatchCap {
				cnt = RemoteBatchCap
			}
			select {
			case ex.sem <- struct{}{}:
			case <-ex.kill:
				ex.strandRing(ring, head+base, n-base)
				return
			}
			pin := getPin()
			hasTraced := false
			for i := 0; i < cnt; i++ {
				it := ring[(head+base+i)&mask]
				pin.items = append(pin.items, it)
				traced := tracer != nil && it.tup.tree.trace != 0
				hasTraced = hasTraced || traced
				items[i] = RemoteItem{Task: it.task, Values: it.tup.Values, Traced: traced}
			}
			// The send stamp anchors the batch's shuttle segments; untraced
			// batches pay no clock read.
			var sentNS int64
			if hasTraced {
				sentNS = time.Now().UnixNano()
			}
			pin.r, pin.br, pin.em, pin.ex, pin.sentNS = r, br, em, ex, sentNS
			err := ex.remote.ProcessBatch(br.spec.name, items[:cnt], pin.done)
			// The transport has encoded the batch; drop the scratch's hold
			// on its Values so an idle executor pins none of them.
			clear(items[:cnt])
			if err != nil {
				<-ex.sem
				// This batch was pinned but never handed off; it strands
				// together with the ring remainder, whatever is still
				// queued stays for install, and the binding self-heals
				// to a local replacement.
				ex.strandPin(pin)
				ex.strandRing(ring, head+base+cnt, n-base-cnt)
				r.failRemoteBinding(br, ex)
				return
			}
			base += cnt
		}
		for i := 0; i < n; i++ {
			ring[(head+i)&mask] = queueItem{}
		}
		spare = ring
	}
}

// applyRemote applies one remote result batch as one emit scope: each
// input tuple's emitted children route through a normal emitter and are
// forked onto its tree (emitter.seal) before its tree acks, and the whole
// batch's children are delivered with one enqueue per destination executor
// once every item is sealed — the local hot loop's fast-bolt sequence.
// Then the worker-measured probe aggregates fold into the executor probe.
//
// Traced items decompose their remote hop into three telescoping segments
// on the serve-side clock: queue wait = (send − handoff) + worker wait,
// service = the worker-measured duration, shuttle = the round trip minus
// both — summing exactly to recv − handoff, so the trace's segment sum
// still reconciles with the root sojourn even though the service ran on
// another machine's clock. Children of a traced item hand off at recv, and
// its spans are emitted before any of the batch's children is enqueued.
func (r *Run) applyRemote(br *boltRuntime, em *emitter, ex *executor, pin *pinBatch, res RemoteResult, sentNS int64) {
	// The worker has served the batch: it leaves the executor's outstanding
	// count here, before the acks below can complete a root.
	ex.q.served(len(pin.items))
	tracer := r.cfg.Tracer
	var recv time.Time
	var recvNS int64
	if tracer != nil && len(res.TraceIdx) > 0 {
		recv = time.Now()
		recvNS = recv.UnixNano()
		em.handoff = recvNS
	}
	traceCur := 0
	var span obs.SpanRecord // reused scratch; EmitSpan copies it out
	for i := range pin.items {
		tree := pin.items[i].tup.tree
		traced := recvNS != 0 && traceCur < len(res.TraceIdx) && int(res.TraceIdx[traceCur]) == i
		em.begin(tree)
		if traced {
			// Spans go into the tracer's rings before the batch's children
			// are enqueued (happens-before the root span; see runExecutor).
			handoff := pin.items[i].tup.handoff
			waitNS := res.TraceWaitNS[traceCur]
			svcNS := res.TraceServiceNS[traceCur]
			traceCur++
			task := pin.items[i].task
			span = obs.SpanRecord{Trace: tree.trace, Kind: obs.SpanQueue, Bolt: br.spec.name,
				Task: task, Remote: true, StartNS: handoff, DurNS: (sentNS - handoff) + waitNS}
			tracer.EmitSpan(&span)
			span = obs.SpanRecord{Trace: tree.trace, Kind: obs.SpanService, Bolt: br.spec.name,
				Task: task, Remote: true, StartNS: sentNS + waitNS, DurNS: svcNS}
			tracer.EmitSpan(&span)
			span = obs.SpanRecord{Trace: tree.trace, Kind: obs.SpanShuttle, Bolt: br.spec.name,
				Task: task, Remote: true, StartNS: sentNS, DurNS: (recvNS - sentNS) - waitNS - svcNS}
			tracer.EmitSpan(&span)
			tree.noteEnd(recvNS)
		}
		for _, v := range res.Emitted[i] {
			em.emit(br.outEdges, v)
		}
		em.seal()
		if traced {
			tree.ack(recv)
		} else {
			tree.ackLazy()
		}
	}
	em.pushDests()
	if res.Errors > 0 {
		br.errCount.Add(res.Errors)
		held := errRemoteProcess
		br.lastErr.Store(&held)
	}
	n := int64(len(pin.items))
	ex.probe.TuplesServed(n, res.BusyNanos)
	// The worker reports sums, so a batch votes as one sample: its mean.
	var over int64
	if res.BusyNanos > n*int64(handoffCost) {
		over = 1
	}
	br.noteService(ex, 1, over)
	pin.put()
}

// failRemoteBinding heals a binding whose transport failed — FailExecutor's
// recovery, triggered by the transport instead of injected. The first
// failure of an executor counts it failed and starts the heal on its own
// goroutine: the trigger may be a connection reader that must keep draining
// completion callbacks, or the victim's own drain loop, which must exit
// before the handover can finish. Under r.mu the heal installs a local
// replacement in the victim's slot, unless Stop already shut the executors
// down. A Rebalance or BindExecutor that already displaced the victim handed
// over what it left (counted in Replayed, the victim being failed), and the
// heal has nothing to do.
func (r *Run) failRemoteBinding(br *boltRuntime, ex *executor) {
	if !ex.failed.CompareAndSwap(false, true) {
		return
	}
	r.execFailures.Add(1)
	go func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		rt := br.route.Load()
		idx := slices.Index(rt.execs, ex)
		if idx < 0 || r.shut.Load() {
			return
		}
		r.install(br, rt.withExecutor(idx, newExecutor(ex.probe, nil)))
		if r.cfg.DecisionLog != nil {
			r.cfg.DecisionLog.Emit(&obs.Record{
				Kind: obs.KindHeal, Peer: br.spec.name, To: idx,
				Detail: "remote binding swapped local",
			})
		}
	}()
}

// boltByName finds a bolt's runtime, or nil.
func (r *Run) boltByName(bolt string) *boltRuntime {
	for _, br := range r.bolts {
		if br.spec.name == bolt {
			return br
		}
	}
	return nil
}
