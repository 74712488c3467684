package engine

import (
	"fmt"
	"runtime"
)

// Executor failure injection and recovery. A production stream processor
// loses workers mid-run; this engine models the crash at its own unit of
// execution — the executor goroutine — and recovers through the same
// route-table machinery and the same retire step a rebalance uses,
// replaying the crashed backlog so at-least-once semantics hold through the
// failure:
//
//  1. a replacement executor is installed at the victim's route-table
//     index (the task assignment is untouched, so this is the minimal
//     migration a rebalance planner could produce: zero tasks move);
//  2. the victim dies at its current tuple boundary: its kill switch
//     flips, its queue closes, and the unprocessed tail of its in-progress
//     batch is stranded for the retirer — a crash does not get to finish
//     its backlog;
//  3. once the victim has exited, the retirer replays the stranded tail
//     and then the backlog its closed queue still holds — oldest first, so
//     each task sees its tuples in arrival order — onto the replacement
//     (Run.replay). Tuples a concurrent emitter was still routing to the
//     dead executor bounce off the closed queue and reroute through the
//     same path and the refreshed table, so the crash window loses
//     nothing: every pending root in the ack tree still completes.
//
// The sole work that survives from the victim is the tuple it was
// processing at the crash instant — it completes before the goroutine
// exits, which is the at-least-once guarantee, not a violation of it. A
// remote-bound victim (remote.go) strands and replays the same way.

// FailExecutor injects a crash of one of a bolt's executors and recovers
// from it: the executor's backlog is replayed onto a fresh local
// replacement wired into the same route-table slot. It returns the number
// of tuples replayed. Concurrent Rebalance/Stop/FailExecutor calls are
// serialized.
//
//checkdoc:testonly crash hook: the at-least-once tests kill an executor mid-stream through it
func (r *Run) FailExecutor(bolt string, exec int) (replayed int, err error) {
	// A crashed remote-bound executor recovers as a local goroutine: its
	// transport's fate is unknown, and the placement layer re-binds once
	// the worker proves live again.
	return r.replaceExecutor(bolt, exec, nil, true)
}

// replaceExecutor is the one slot-replacement path behind FailExecutor and
// BindExecutor: under r.mu, install a replacement at one route-table slot
// (local when remote is nil), retire the victim, and report how many tuples
// replayed meanwhile. A crash counts as an executor failure; a bind to the
// destination the slot already has is a no-op.
func (r *Run) replaceExecutor(bolt string, exec int, remote RemoteExecutor, crash bool) (replayed int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// A Stop that already shut the executors down closed every queue, and
	// installing a replacement now would leak its goroutine (nothing would
	// ever close the fresh queue).
	if r.shut.Load() {
		return 0, ErrStopped
	}
	br := r.boltByName(bolt)
	if br == nil {
		return 0, errUnknownBolt(bolt)
	}
	rt := br.route.Load()
	if exec < 0 || exec >= len(rt.execs) {
		return 0, fmt.Errorf("engine: bolt %q: executor %d out of [0, %d)", bolt, exec, len(rt.execs))
	}
	victim := rt.execs[exec]
	if !crash && victim.remote == remote {
		return 0, nil
	}
	before := r.replayed.Load()
	r.swapExecutorLocked(br, exec, remote)
	r.retireLocked(br, victim, crash)
	if crash {
		r.execFailures.Add(1)
	}
	return int(r.replayed.Load() - before), nil
}

// swapExecutorLocked installs a fresh executor — local when remote is nil,
// a remote drain loop otherwise — at one route-table slot. The replacement
// is installed before the victim is touched, so an emitter that bounces
// off a closing queue finds the live successor on its very first route
// reload; a local replacement queues what it is given until the victim has
// exited (executor.after), so the two are never inside one task instance
// together. The replacement inherits the victim's probe: its undrained
// arrivals/served counters survive the swap (the probe is
// concurrency-safe), so the measurer's λ̂ does not dip and replayed tuples
// — already counted as arrivals once — are not re-counted. Caller holds
// r.mu.
func (r *Run) swapExecutorLocked(br *boltRuntime, exec int, remote RemoteExecutor) {
	old := br.route.Load()
	victim := old.execs[exec]
	replacement := &executor{
		q:     newQueue(),
		probe: victim.probe,
		done:  make(chan struct{}),
		after: victim.done,
	}
	rt := &routeTable{execs: make([]*executor, len(old.execs)), assign: old.assign, owned: old.owned}
	copy(rt.execs, old.execs)
	rt.execs[exec] = replacement
	r.execWG.Add(1)
	if remote != nil {
		replacement.remote = remote
		replacement.sem = make(chan struct{}, RemoteInflight)
		replacement.kill = make(chan struct{})
		go r.runRemoteExecutor(br, replacement)
	} else {
		go r.runExecutor(br, replacement)
	}
	br.route.Store(rt)
}

// retireLocked takes a displaced executor out of service — the one step
// behind Rebalance, BindExecutor, FailExecutor and the remote self-heal: its
// queue closes, it exits, and what it stranded, then what its closed queue
// still holds, replays oldest first through the bolt's current route table.
// A healthy executor drains its own backlog and leaves nothing. A remote one
// whose send fails mid-drain leaves its pinned batch, ring tail and unpopped
// rest, and once it is out of the route table no heal replays them. crash
// flips the kill switch and killRemote first, so the executor stops at its
// current tuple (remote: batch) boundary. What replays here left a crashed
// executor or a failed transport, so it counts in Replayed. Arrival probes
// are not re-counted: the tuples arrived once already, and an inflated λ̂
// would bias the next control decision. Caller holds r.mu.
func (r *Run) retireLocked(br *boltRuntime, ex *executor, crash bool) {
	if crash {
		ex.failed.Store(true) // a transport failure still to come is this crash, not another
		ex.crashed.Store(true)
		ex.killRemote()
	}
	ex.q.close()
	<-ex.done
	left := append(ex.stranded, ex.q.seize()...)
	r.replayed.Add(int64(len(left)))
	r.replay(br, left)
}

// errUnknownBolt names a bolt the topology does not have.
func errUnknownBolt(bolt string) error {
	return fmt.Errorf("engine: unknown bolt %q", bolt)
}

// replay is the one way back: it re-delivers, in order, tuples an executor
// left unserved — what a retired executor stranded or left in its queue, a
// batch an emitter could not push into a closed queue, a remote batch whose
// transport failed after handoff — to whatever executor the bolt's current
// route table assigns each task, retrying across route swaps (a second
// crash can land mid-replay). A tuple that cannot land because Stop shut
// the executors down strands: its tree stays in flight and Stop counts its
// root. The retry is otherwise unbounded by design: a queue only closes
// after its successor route is installed (every swap) or at that shutdown,
// so a live run always makes progress and a capped retry would have to ack
// an unprocessed tuple — a silent at-least-once violation. Replayed counts
// only the tuples of a crash or a transport failure, at their callers: a
// batch that bounced off a retiring queue was rerouted, not lost.
func (r *Run) replay(br *boltRuntime, items []queueItem) {
	for _, it := range items {
		for {
			rt := br.route.Load()
			if rt.execs[rt.assign[it.task]].q.push(it) || r.shut.Load() {
				break
			}
			runtime.Gosched()
		}
	}
}

// ExecutorFailures reports how many executors crashed (FailExecutor) or
// lost their transport, each counted once.
func (r *Run) ExecutorFailures() int64 { return r.execFailures.Load() }

// Replayed reports how many tuples left an executor that crashed or whose
// transport failed and were re-delivered: a crashed victim's stranded tail
// and backlog, a failed binding's pinned and queued tuples. An emit that
// bounced off a retiring executor's closed queue and rerouted is not a
// replay. Zero lost-forever tuples means completions catch up with
// arrivals even when this is non-zero.
func (r *Run) Replayed() int64 { return r.replayed.Load() }
