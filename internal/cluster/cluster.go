// Package cluster simulates the resource-pool substrate below the CSP
// layer: machines that each host a fixed number of executor slots, worker
// (JVM) processes with distinct cold-start and reuse costs, and the
// resource negotiator that starts and stops machines (the paper's
// Appendix-B negotiator sits below Storm's resource manager and talks to
// YARN; here it talks to this pool).
//
// The package also carries the cost model behind the paper's Figures 9-10:
// a rebalance that merely remaps executors on warm workers is cheap
// (seconds, because DRS reuses JVMs), a scale-out that must boot a new
// machine is expensive (the ~4.8 s spike of ExpA), and Storm's default
// stop-the-world rebalance is modeled for comparison (1-2 minutes).
//
// Machines have identity and a lifecycle: a provisioned machine is up
// until Fail marks it crashed (its slots leave the capacity on offer) and
// until Recover brings it back or Decommission returns it to the provider.
// A machine can also be flagged as a straggler — still serving, but
// degraded — which placement treats as a last-resort host. Fail/Recover
// are the churn inputs the failure-domain tests and the churn experiment
// drive; a Scheduler that owns the pool subscribes via AddChurnListener
// and re-arbitrates the leases out of band the moment capacity moves.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrNoCapacity is returned when a requested pool size exceeds the
// provider's machine limit.
var ErrNoCapacity = errors.New("cluster: provider machine limit reached")

// ErrUnknownMachine is returned for lifecycle operations naming a machine
// the pool does not hold.
var ErrUnknownMachine = errors.New("cluster: unknown machine")

// CostModel prices the three transition kinds, as durations of degraded
// service applied to in-flight tuples during the change.
type CostModel struct {
	// Rebalance is the pause for remapping executors on warm workers
	// (our improved mechanism: JVMs are reused).
	Rebalance time.Duration
	// MachineColdStart is the extra pause when a scale-out boots machines
	// and their workers (ExpA's 4777 ms spike).
	MachineColdStart time.Duration
	// MachineRelease is the pause when draining and stopping machines
	// (ExpB's ~1113 ms bump).
	MachineRelease time.Duration
}

// PaperCosts are the transition costs reported in §V.
func PaperCosts() CostModel {
	return CostModel{
		Rebalance:        3 * time.Second,
		MachineColdStart: 4777 * time.Millisecond,
		MachineRelease:   1113 * time.Millisecond,
	}
}

// PoolConfig describes the cluster geometry.
type PoolConfig struct {
	// SlotsPerMachine is the executor capacity of one machine (the paper
	// constrains each machine to 5 executors).
	SlotsPerMachine int
	// ReservedSlots are taken off the top of the pool for spouts and the
	// DRS executor itself (3 in the paper).
	ReservedSlots int
	// MaxMachines caps what the negotiator may provision (6 in the paper:
	// 5 for executors + 1 for Nimbus/ZooKeeper, which we fold into the cap).
	// A failed machine still occupies the cap until it recovers or is
	// decommissioned — the provider lease does not end with the crash.
	MaxMachines int
	// Costs prices transitions; zero values mean free transitions.
	Costs CostModel
}

// Validate reports configuration errors.
func (c PoolConfig) Validate() error {
	if c.SlotsPerMachine < 1 {
		return errors.New("cluster: slots per machine must be >= 1")
	}
	if c.ReservedSlots < 0 {
		return errors.New("cluster: reserved slots must be >= 0")
	}
	if c.MaxMachines < 1 {
		return errors.New("cluster: max machines must be >= 1")
	}
	if c.ReservedSlots >= c.SlotsPerMachine*c.MaxMachines {
		return errors.New("cluster: reserved slots consume the whole pool")
	}
	return nil
}

// Transition describes one applied pool change, with its modeled cost.
type Transition struct {
	// Kind is "rebalance", "scale-out" or "scale-in".
	Kind string
	// MachinesBefore and MachinesAfter bracket the change (live machines).
	MachinesBefore, MachinesAfter int
	// Pause is the modeled service disruption.
	Pause time.Duration
}

// MachineInfo is one machine's identity and lifecycle state.
type MachineInfo struct {
	// ID identifies the machine for Fail/Recover/Decommission; IDs are
	// assigned once at provisioning and never reused within a pool.
	ID int
	// Failed reports a crashed machine: provisioned (it occupies the cap)
	// but contributing no capacity until Recover.
	Failed bool
	// Straggler flags a degraded machine: it still serves its slots, but
	// placement treats it as a last-resort host.
	Straggler bool
}

// ChurnEvent describes one machine lifecycle transition, delivered to the
// churn listeners after the pool state has changed.
type ChurnEvent struct {
	// Kind is "machine-fail", "machine-recover", "straggler" or
	// "straggler-clear".
	Kind string
	// Machine is the affected machine's ID.
	Machine int
	// LiveBefore and LiveAfter bracket the live machine count.
	LiveBefore, LiveAfter int
}

// machine is one pool machine's mutable record.
type machine struct {
	id        int
	failed    bool
	straggler bool
}

// Pool is the simulated machine pool. Safe for concurrent use.
type Pool struct {
	mu        sync.Mutex
	cfg       PoolConfig
	fleet     []machine // provisioned machines (live and failed), id order
	nextID    int
	listeners []func(ChurnEvent) // churn listeners, called after mu is released
	workers   map[int]string     // machine id -> registered worker process
}

// NewPool builds a pool with the given starting machine count.
func NewPool(cfg PoolConfig, startMachines int) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if startMachines < 1 || startMachines > cfg.MaxMachines {
		return nil, fmt.Errorf("cluster: start machines %d out of [1, %d]", startMachines, cfg.MaxMachines)
	}
	p := &Pool{cfg: cfg}
	for i := 0; i < startMachines; i++ {
		p.nextID++
		p.fleet = append(p.fleet, machine{id: p.nextID})
	}
	return p, nil
}

// Machines reports the current live machine count.
func (p *Pool) Machines() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.liveLocked()
}

// MachineList returns every provisioned machine's state, in ID order.
func (p *Pool) MachineList() []MachineInfo {
	return p.AppendMachineList(nil)
}

// AppendMachineList appends every machine's status to dst and returns the
// extended slice — MachineList without the per-call allocation, for hot
// callers (the scheduler's placement rebuild) that keep a scratch buffer.
func (p *Pool) AppendMachineList(dst []MachineInfo) []MachineInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.fleet {
		dst = append(dst, MachineInfo{ID: m.id, Failed: m.failed, Straggler: m.straggler})
	}
	return dst
}

// LiveMachines returns the machines currently in service, in ID order —
// the last entry is the newest live machine, the canonical victim for
// failure-injection drivers.
func (p *Pool) LiveMachines() []MachineInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]MachineInfo, 0, len(p.fleet))
	for _, m := range p.fleet {
		if !m.failed {
			out = append(out, MachineInfo{ID: m.id, Straggler: m.straggler})
		}
	}
	return out
}

func (p *Pool) liveLocked() int {
	n := 0
	for _, m := range p.fleet {
		if !m.failed {
			n++
		}
	}
	return n
}

func (p *Pool) failedLocked() int { return len(p.fleet) - p.liveLocked() }

func (p *Pool) findLocked(id int) *machine {
	for i := range p.fleet {
		if p.fleet[i].id == id {
			return &p.fleet[i]
		}
	}
	return nil
}

// Fail marks a live machine crashed: its slots leave the capacity on offer
// immediately, but the machine keeps occupying the provider cap until
// Recover or Decommission. The churn listeners are notified.
func (p *Pool) Fail(id int) error {
	p.mu.Lock()
	m := p.findLocked(id)
	if m == nil {
		p.mu.Unlock()
		return fmt.Errorf("%w: id %d", ErrUnknownMachine, id)
	}
	if m.failed {
		p.mu.Unlock()
		return fmt.Errorf("cluster: machine %d already failed", id)
	}
	before := p.liveLocked()
	m.failed = true
	notify := p.listeners
	p.mu.Unlock()
	for _, fn := range notify {
		fn(ChurnEvent{Kind: "machine-fail", Machine: id, LiveBefore: before, LiveAfter: before - 1})
	}
	return nil
}

// Recover brings a failed machine back into service (MTTR elapsed, or the
// operator repaired it). The churn listeners are notified.
func (p *Pool) Recover(id int) error {
	p.mu.Lock()
	m := p.findLocked(id)
	if m == nil {
		p.mu.Unlock()
		return fmt.Errorf("%w: id %d", ErrUnknownMachine, id)
	}
	if !m.failed {
		p.mu.Unlock()
		return fmt.Errorf("cluster: machine %d is not failed", id)
	}
	before := p.liveLocked()
	m.failed = false
	notify := p.listeners
	p.mu.Unlock()
	for _, fn := range notify {
		fn(ChurnEvent{Kind: "machine-recover", Machine: id, LiveBefore: before, LiveAfter: before + 1})
	}
	return nil
}

// Decommission returns a failed machine to the provider, freeing its place
// under the MaxMachines cap (so a replacement can be negotiated). Only
// failed machines can be decommissioned; live ones leave through Resize.
func (p *Pool) Decommission(id int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.fleet {
		if p.fleet[i].id == id {
			if !p.fleet[i].failed {
				return fmt.Errorf("cluster: machine %d is live; scale in instead", id)
			}
			p.fleet = append(p.fleet[:i], p.fleet[i+1:]...)
			delete(p.workers, id) // the machine is gone; so is its lease
			return nil
		}
	}
	return fmt.Errorf("%w: id %d", ErrUnknownMachine, id)
}

// SetStraggler flags or clears a machine's straggler state — the "slow but
// alive" signal a health checker raises. Capacity is unchanged; placement
// (and whoever watches the signal) treats the machine as a last-resort
// host. The churn listeners are notified so placements refresh.
func (p *Pool) SetStraggler(id int, on bool) error {
	p.mu.Lock()
	m := p.findLocked(id)
	if m == nil {
		p.mu.Unlock()
		return fmt.Errorf("%w: id %d", ErrUnknownMachine, id)
	}
	changed := m.straggler != on
	m.straggler = on
	live := p.liveLocked()
	notify := p.listeners
	p.mu.Unlock()
	if changed {
		kind := "straggler"
		if !on {
			kind = "straggler-clear"
		}
		for _, fn := range notify {
			fn(ChurnEvent{Kind: kind, Machine: id, LiveBefore: live, LiveAfter: live})
		}
	}
	return nil
}

// Kmax reports the processor budget the pool offers: the live machines'
// slots minus the reserved ones.
func (p *Pool) Kmax() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.kmaxLocked()
}

func (p *Pool) kmaxLocked() int {
	k := p.liveLocked()*p.cfg.SlotsPerMachine - p.cfg.ReservedSlots
	if k < 0 {
		k = 0
	}
	return k
}

// MaxKmax reports the largest processor budget the provider can offer
// right now: every machine up to the cap — failed machines still occupy
// their cap places — minus the reserved slots.
func (p *Pool) MaxKmax() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := (p.cfg.MaxMachines-p.failedLocked())*p.cfg.SlotsPerMachine - p.cfg.ReservedSlots
	if k < 0 {
		k = 0
	}
	return k
}

// SlotsPerMachine reports the executor capacity of one machine.
func (p *Pool) SlotsPerMachine() int { return p.cfg.SlotsPerMachine }

// ReservedSlots reports the slots taken off the top of the pool for
// spouts and the DRS executor.
func (p *Pool) ReservedSlots() int { return p.cfg.ReservedSlots }

// Costs returns the transition cost model the pool prices changes with.
func (p *Pool) Costs() CostModel {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cfg.Costs
}

// MachinesFor returns the fewest live machines whose pool covers the given
// number of processors, and the resulting Kmax.
func (p *Pool) MachinesFor(processors int) (machines, kmax int, err error) {
	if processors < 0 {
		return 0, 0, fmt.Errorf("cluster: negative processor count %d", processors)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.machinesForLocked(processors)
}

// Rebalance applies an executor remap with no pool change and returns the
// transition with its modeled pause.
func (p *Pool) Rebalance() Transition {
	p.mu.Lock()
	defer p.mu.Unlock()
	live := p.liveLocked()
	return Transition{
		Kind:           "rebalance",
		MachinesBefore: live,
		MachinesAfter:  live,
		Pause:          p.cfg.Costs.Rebalance,
	}
}

// Resize negotiates the pool to the given Kmax (quantized up to whole live
// machines) and returns the transition. Growing provisions fresh machines
// and pays the cold-start cost; shrinking decommissions live machines —
// stragglers first, then youngest — and pays the release cost; a no-op
// change returns a zero-cost rebalance-kind transition.
func (p *Pool) Resize(targetKmax int) (Transition, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	machines, _, err := p.machinesForLocked(targetKmax)
	if err != nil {
		return Transition{}, err
	}
	live := p.liveLocked()
	tr := Transition{MachinesBefore: live, MachinesAfter: machines}
	switch {
	case machines > live:
		tr.Kind = "scale-out"
		tr.Pause = p.cfg.Costs.Rebalance + p.cfg.Costs.MachineColdStart
		for i := live; i < machines; i++ {
			p.nextID++
			p.fleet = append(p.fleet, machine{id: p.nextID})
		}
	case machines < live:
		tr.Kind = "scale-in"
		tr.Pause = p.cfg.Costs.Rebalance + p.cfg.Costs.MachineRelease
		p.releaseLocked(live - machines)
	default:
		tr.Kind = "rebalance"
		tr.Pause = p.cfg.Costs.Rebalance
	}
	return tr, nil
}

// releaseLocked removes n live machines: stragglers first (the shrink is
// the moment to shed degraded hardware), then the youngest healthy ones.
func (p *Pool) releaseLocked(n int) {
	drop := func(wantStraggler bool) bool {
		for i := len(p.fleet) - 1; i >= 0; i-- {
			if !p.fleet[i].failed && p.fleet[i].straggler == wantStraggler {
				delete(p.workers, p.fleet[i].id)
				p.fleet = append(p.fleet[:i], p.fleet[i+1:]...)
				return true
			}
		}
		return false
	}
	for ; n > 0; n-- {
		if !drop(true) && !drop(false) {
			return
		}
	}
}

func (p *Pool) machinesForLocked(processors int) (machines, kmax int, err error) {
	need := processors + p.cfg.ReservedSlots
	machines = (need + p.cfg.SlotsPerMachine - 1) / p.cfg.SlotsPerMachine
	if machines < 1 {
		machines = 1
	}
	if limit := p.cfg.MaxMachines - p.failedLocked(); machines > limit {
		return 0, 0, fmt.Errorf("%w: need %d machines, cap %d (%d failed)",
			ErrNoCapacity, machines, p.cfg.MaxMachines, p.failedLocked())
	}
	return machines, machines*p.cfg.SlotsPerMachine - p.cfg.ReservedSlots, nil
}

// PaperPool is the experiment cluster of §V-B: 6 machines, one reserved
// for coordination (folded into a 5-executor-machine cap of 5... the 25
// usable slots), 5 slots per machine, 3 slots reserved for the two spouts
// and the DRS executor — so 5 machines give Kmax = 22 and 4 give 17.
func PaperPool(startMachines int) (*Pool, error) {
	return NewPool(PoolConfig{
		SlotsPerMachine: 5,
		ReservedSlots:   3,
		MaxMachines:     5,
		Costs:           PaperCosts(),
	}, startMachines)
}
