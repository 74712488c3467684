package engine

import (
	"fmt"
	"runtime"
)

// Executor failure injection and recovery. A production stream processor
// loses workers mid-run; this engine models the crash at its own unit of
// execution — the executor goroutine — and recovers through the same
// route-table step every displaced executor takes (Run.install), so
// at-least-once semantics hold through the failure:
//
//  1. the victim stops at its current tuple boundary: its stop switch
//     flips, and the unprocessed tail of its in-progress batch strands;
//  2. once the victim has exited, its queue closes, and the stranded tail,
//     then the backlog the queue still holds — oldest first, so each task
//     sees its tuples in arrival order — land in the queue of a
//     replacement built for the victim's route-table index (the task
//     assignment is untouched: zero tasks move);
//  3. the replacement is published and started. Tuples a concurrent
//     emitter was still routing to the dead executor bounce off the closed
//     queue and reroute through the refreshed table (Run.replay), so the
//     crash window loses nothing: every pending root in the ack tree still
//     completes.
//
// A rebalance or a rebind stops its executors by the same rule; a crash
// differs only in what it counts: the victim is failed, it counts in
// ExecutorFailures, and what it left counts in Replayed. The sole work
// that survives from the victim is the tuple it was processing at the
// crash instant — it completes before the goroutine exits, which is the
// at-least-once guarantee, not a violation of it. A remote-bound victim
// (remote.go) strands and hands over the same way.

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
// (local when remote is nil) and report how many tuples replayed
// meanwhile. A crash counts as an executor failure; a bind to the
// destination the slot already has is a no-op. The replacement inherits
// the victim's probe: its undrained arrivals/served counters survive the
// swap (the probe is concurrency-safe), so the measurer's λ̂ does not dip
// and handed-over tuples — already counted as arrivals once — are not
// re-counted.
func (r *Run) replaceExecutor(bolt string, exec int, remote RemoteExecutor, crash bool) (replayed int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// A Stop that already shut the executors down stopped every one, and
	// installing a replacement now would leak its goroutine (nothing would
	// ever stop it).
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
	if crash {
		victim.failed.Store(true) // a transport failure still to come is this crash, not another
		r.execFailures.Add(1)
	}
	before := r.replayed.Load()
	r.install(br, rt.withExecutor(exec, newExecutor(victim.probe, remote)))
	return int(r.replayed.Load() - before), nil
}

// errUnknownBolt names a bolt the topology does not have.
func errUnknownBolt(bolt string) error {
	return fmt.Errorf("engine: unknown bolt %q", bolt)
}

// replay is the one way back: it re-delivers, in order, tuples that could
// not stay where they were — a batch an emitter could not push into a
// closed queue, a remote batch whose transport failed after handoff — to
// whatever executor the bolt's current route table assigns each task,
// retrying across route swaps. The retry is unbounded by design: a queue
// closes only inside install, after every executor it displaces has
// exited, and install publishes the successor table before it releases
// r.mu, so the retry ends once that table is out, and a capped
// retry would have to ack an unprocessed tuple — a silent at-least-once
// violation. Once Stop has shut the executors down a tuple lands in a
// stopped queue and strands there: its tree stays in flight and Stop
// counts its root. Replayed counts only the tuples of a transport failure,
// at its caller: a batch that bounced off a closed queue was rerouted, not
// lost.
func (r *Run) replay(br *boltRuntime, items []queueItem) {
	for _, it := range items {
		for {
			rt := br.route.Load()
			if rt.execs[rt.assign[it.task]].q.push(it) {
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
// and backlog, a failed binding's pinned and queued tuples. A healthy
// executor's handover is not a replay, nor is an emit that bounced off a
// closed queue and rerouted. Zero lost-forever tuples means completions
// catch up with arrivals even when this is non-zero.
func (r *Run) Replayed() int64 { return r.replayed.Load() }
