package cluster

import "fmt"

// Worker registration: the bridge between the pool's simulated machine
// lifecycle and real worker processes. A machine id can be leased to one
// worker process at a time; the serve wiring fails the machine when the
// worker's heartbeat lease lapses or its connection dies, and a
// replacement process re-backs and recovers it.

// AddChurnListener registers a machine-lifecycle listener: the Scheduler
// that arbitrates the pool (NewScheduler registers it). Listeners run
// after the transition is applied and outside the pool lock, in
// registration order, so they may call back into the pool. A transition
// fires the listeners registered when it was applied: the list only
// grows, so its snapshot under the lock stays valid after the lock is
// released.
func (p *Pool) AddChurnListener(fn func(ChurnEvent)) {
	if fn == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.listeners = append(p.listeners, fn)
}

// BindWorker leases machine id to the named worker process. The machine
// must be provisioned and unbound; binding a failed machine is allowed
// (the caller typically Recovers it right after — a replacement process
// re-backing a crashed machine).
func (p *Pool) BindWorker(id int, worker string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.findLocked(id) == nil {
		return fmt.Errorf("%w: id %d", ErrUnknownMachine, id)
	}
	if w, bound := p.workers[id]; bound {
		return fmt.Errorf("cluster: machine %d already backed by worker %q", id, w)
	}
	if p.workers == nil {
		p.workers = make(map[int]string)
	}
	p.workers[id] = worker
	return nil
}

// UnbindWorker releases a machine's worker lease. Unknown or unbound ids
// are a no-op: death paths race with decommissions, and both sides may
// try to clean up the same lease.
func (p *Pool) UnbindWorker(id int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.workers, id)
}
