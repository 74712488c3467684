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
//     its in-progress batch is abandoned for replay — a crash does not
//     get to finish its backlog;
//  3. both backlogs replay onto the replacement. Tuples a concurrent
//     emitter was still routing to the dead executor bounce off the
//     closed queue and re-route through the refreshed table (the
//     emitter's redeliver path), so the crash window loses nothing: every
//     pending root in the ack tree still completes.
//
// The sole work that survives from the victim is the tuple it was
// processing at the crash instant — it completes before the goroutine
// exits, which is the at-least-once guarantee, not a violation of it.

// FailExecutor injects a crash of one of a bolt's executors and recovers
// from it: the executor's backlog is replayed onto a fresh replacement
// wired into the same route-table slot. It returns the number of backlog
// tuples replayed. Concurrent Rebalance/Stop/FailExecutor calls are
// serialized.
func (r *Run) FailExecutor(bolt string, exec int) (replayed int, err error) {
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
	old := br.route.Load()
	if exec < 0 || exec >= len(old.execs) {
		return 0, errExecRange(bolt, exec, len(old.execs))
	}
	victim := old.execs[exec]
	before := r.replayed.Load()
	// A crashed remote-bound executor recovers as a local goroutine: its
	// transport's fate is unknown, and the placement layer re-binds once
	// the worker proves live again.
	r.swapExecutorLocked(br, exec, nil)
	r.reapExecutorLocked(br, victim)
	r.execFailures.Add(1)
	return int(r.replayed.Load() - before), nil
}

// swapExecutorLocked installs a fresh executor — local when remote is nil,
// a remote drain loop otherwise — at one route-table slot, returning the
// displaced victim. The replacement is installed before the victim is
// touched, so an emitter that bounces off a closing queue finds the live
// successor on its very first route reload; a local replacement queues what
// it is given until the victim has exited (executor.after), so the two are
// never inside one task instance together. The replacement inherits the
// victim's probe: its undrained arrivals/served counters survive the swap
// (the probe is concurrency-safe), so the measurer's λ̂ does not dip and
// replayed tuples — already counted as arrivals once — are not re-counted.
// Caller holds r.mu.
func (r *Run) swapExecutorLocked(br *boltRuntime, exec int, remote RemoteExecutor) (victim *executor) {
	old := br.route.Load()
	victim = old.execs[exec]
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
	return victim
}

// reapExecutorLocked crashes a displaced executor and replays everything it
// still held: flip the kill switch, close the queue and seize its backlog
// atomically, release a remote drain loop parked on its in-flight window,
// wait for the goroutine to exit, then re-deliver the backlog plus any
// stranded items through the current route table. The victim stops at its
// current tuple boundary — a crash does not get to finish its backlog.
// Arrival probes are not re-counted on replay: the tuples arrived once
// already, and inflating λ̂ would bias the next control decision. Caller
// holds r.mu.
func (r *Run) reapExecutorLocked(br *boltRuntime, victim *executor) {
	victim.crashed.Store(true)
	victim.killRemote()
	backlog := victim.q.crashCapture()
	<-victim.done
	backlog = append(backlog, victim.takeStranded()...)
	for _, it := range backlog {
		if !r.redeliverItem(br, it) {
			it.tup.tree.ackLazy() // shutdown raced the crash
		}
	}
}

// errUnknownBolt names a bolt the topology does not have.
func errUnknownBolt(bolt string) error {
	return fmt.Errorf("engine: unknown bolt %q", bolt)
}

// errExecRange reports an executor index outside a bolt's current set.
func errExecRange(bolt string, exec, n int) error {
	return fmt.Errorf("engine: bolt %q: executor %d out of [0, %d)", bolt, exec, n)
}

// replayRemainder re-delivers the unprocessed tail of a crashed
// executor's in-progress batch ([start, start+count) in ring order)
// through the bolt's current route table. Called by the dying executor
// itself, after it stops serving.
func (r *Run) replayRemainder(br *boltRuntime, ring []queueItem, start, count int) {
	mask := len(ring) - 1
	for i := 0; i < count; i++ {
		it := &ring[(start+i)&mask]
		if !r.redeliverItem(br, *it) {
			it.tup.tree.ackLazy() // shutdown raced the crash
		}
		*it = queueItem{}
	}
}

// redeliverItem pushes one tuple to whatever executor the bolt's current
// route table assigns its task, retrying across route swaps (a second
// crash can land mid-replay). It reports false only when the run is
// stopping — the caller must then resolve the tuple's tree itself. The
// retry is unbounded by design: a queue only closes after its successor
// route is installed (FailExecutor, Rebalance) or once stopped is set
// (Stop), so a live run always makes progress and a capped retry would
// have to ack an unprocessed tuple — a silent at-least-once violation.
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
