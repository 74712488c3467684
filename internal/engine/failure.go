package engine

import (
	"fmt"
	"runtime"
)

// Executor failure injection and recovery. A production stream processor
// loses workers mid-run; this engine models the crash at its own unit of
// execution — the executor goroutine — and recovers through the same
// route-table machinery a rebalance uses, replaying the crashed backlog so
// at-least-once semantics hold through the failure:
//
//  1. a replacement executor is installed at the victim's route-table
//     index (the task assignment is untouched, so this is the minimal
//     migration a rebalance planner could produce: zero tasks move);
//  2. the victim dies at its current tuple boundary: its kill switch
//     flips, its queue is crash-captured (closed, with the undelivered
//     backlog taken in the same atomic step), and the unprocessed tail of
//     its in-progress batch is stranded for the reaper — a crash does not
//     get to finish its backlog;
//  3. once the victim has exited, the reaper replays the stranded tail and
//     then the captured backlog — oldest first, so each task sees its
//     tuples in arrival order — onto the replacement (Run.replay). Tuples
//     a concurrent emitter was still routing to the dead executor bounce
//     off the closed queue and replay through the same path and the
//     refreshed table, so the crash window loses nothing: every pending
//     root in the ack tree still completes.
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
// (local when remote is nil), reap the victim, and report how many tuples
// replayed meanwhile. A crash counts as an executor failure; a bind to the
// destination the slot already has is a no-op.
func (r *Run) replaceExecutor(bolt string, exec int, remote RemoteExecutor, crash bool) (replayed int, err error) {
	if r.stopped.Load() {
		return 0, ErrStopped
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Re-check under the lock: a Stop that won the race already closed
	// every queue, and installing a replacement now would leak its
	// goroutine (nothing would ever close the fresh queue).
	if r.stopped.Load() {
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
	r.reapExecutorLocked(br, victim)
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

// reapExecutorLocked crashes a displaced executor and replays everything it
// still held: flip the kill switch, close the queue and seize its backlog
// atomically, release a remote drain loop parked on its in-flight window,
// wait for the goroutine to exit, then replay what it stranded followed by
// the seized backlog. The victim stops at its current tuple boundary — a
// crash does not get to finish its backlog. Arrival probes are not
// re-counted on replay: the tuples arrived once already, and inflating λ̂
// would bias the next control decision. Caller holds r.mu.
func (r *Run) reapExecutorLocked(br *boltRuntime, victim *executor) {
	victim.crashed.Store(true)
	victim.killRemote()
	backlog := victim.q.crashCapture()
	<-victim.done
	r.replay(br, append(victim.stranded, backlog...))
}

// errUnknownBolt names a bolt the topology does not have.
func errUnknownBolt(bolt string) error {
	return fmt.Errorf("engine: unknown bolt %q", bolt)
}

// replay is the one way back: it re-delivers, in order, tuples an executor
// left unserved — a reaped victim's stranded tail and seized backlog, a
// batch an emitter could not push into a closed queue, a remote batch
// whose transport failed after handoff — through the bolt's current route
// table. A tuple that cannot land because the run is stopping resolves its
// tree on the spot, as an immediate delivery would have.
func (r *Run) replay(br *boltRuntime, items []queueItem) {
	for _, it := range items {
		if !r.redeliverItem(br, it) {
			it.tup.tree.ackLazy()
		}
	}
}

// redeliverItem pushes one tuple to whatever executor the bolt's current
// route table assigns its task, retrying across route swaps (a second
// crash can land mid-replay). It reports false only when the run is
// stopping. The retry is unbounded by design: a queue only closes after
// its successor route is installed (FailExecutor, Rebalance) or once
// stopped is set (Stop), so a live run always makes progress and a capped
// retry would have to ack an unprocessed tuple — a silent at-least-once
// violation.
func (r *Run) redeliverItem(br *boltRuntime, it queueItem) bool {
	for {
		rt := br.route.Load()
		if rt.execs[rt.assign[it.task]].q.push(it) {
			r.replayed.Add(1)
			return true
		}
		if r.stopped.Load() {
			return false
		}
		runtime.Gosched()
	}
}

// ExecutorFailures reports how many executor crashes were injected.
func (r *Run) ExecutorFailures() int64 { return r.execFailures.Load() }

// Replayed reports how many tuples were re-delivered after a crash — the
// victim's captured backlog plus any in-flight emits that bounced off the
// dead executor's queue. Zero lost-forever tuples means completions catch
// up with arrivals even when this is non-zero.
func (r *Run) Replayed() int64 { return r.replayed.Load() }
