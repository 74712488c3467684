// Package drs is a from-scratch Go reproduction of DRS — the dynamic
// resource scheduler for real-time streaming analytics of Fu et al.,
// "DRS: Dynamic Resource Scheduling for Real-Time Analytics over Fast
// Streams" (ICDCS 2015).
//
// The package exposes the paper's contribution as a library:
//
//   - The performance model (§III-B): per-operator M/M/k sojourn estimates
//     (Erlang's formulas, Equations 1-2) aggregated over a Jackson open
//     queueing network (Equation 3), for arbitrary operator topologies with
//     splits, joins and feedback loops.
//   - The exactly-optimal greedy allocators (§III-C): AssignProcessors
//     (Algorithm 1 / Program (4): best latency under a processor budget)
//     and MinProcessors (Program (6): fewest processors under a latency
//     target), both justified by the convexity of E[T_i](k_i) (Theorem 1).
//   - The DRS control loop (§IV): a Measurer that aggregates per-tuple
//     executor metrics to operator level with 6-interval window
//     smoothing, and a Controller that turns measurement snapshots into
//     rebalance / scale-out / scale-in decisions, including the Appendix-B
//     cost/benefit guard.
//   - The closed loop, live (§IV's DRS daemon): a Supervisor that owns a
//     running topology, drains its measurements every Tm seconds, steps
//     the controller and actuates the verdicts through the resource pool —
//     with cooldown hysteresis between actions and suppression of
//     repeatedly-failing rebalances. `drsctl schedule` runs it against
//     the built-in engine, one supervisor per topology on a scheduler
//     lease.
//   - The multi-tenant cluster layer (the §V shared-cluster setting): a
//     Scheduler that owns one machine pool and arbitrates slot leases
//     among N concurrently supervised topologies — weighted max-min
//     fairness over free capacity, and preemption toward a Tmax-violating
//     higher-priority tenant under the Appendix-B cost/benefit guard,
//     comparing marginal sojourn-time utilities across tenants via the
//     Eq. 3 model. `drsctl schedule` runs live topologies on one pool;
//     `drs-experiments contention` measures the arbitration.
//   - The failure domain: pool machines have identity and a lifecycle
//     (Fail / Recover / straggler flag), the Scheduler re-arbitrates every
//     lease out of band the moment capacity moves — shrinking grants
//     fairly with slots-lost attribution, optionally negotiating a
//     replacement machine within the provider cap — and Supervisors
//     re-fit their allocations to the surviving grant outside the
//     cooldown gate (SlotsLost events). The engine recovers crashed
//     executors by replaying their backlog onto a replacement, so
//     at-least-once semantics hold through the crash. `drsctl schedule
//     -fail-after` runs the whole arc live; `drs-experiments churn`
//     measures it.
//   - The durability layer: a segmented, CRC-framed write-ahead log with
//     group-commit batching (WAL/OpenWAL), completion-tracking watermarks
//     and periodic checkpoints, so an ACKed record survives kill -9 of the
//     serving process and is replayed into the engine on the next boot —
//     at-least-once across process death, not just executor crashes.
//     `drsctl serve -wal-dir` turns it on; `drs-experiments restart` and
//     `make restart-smoke` measure the recovery arc.
//
// A minimal session:
//
//	topo, err := drs.NewTopologyBuilder().
//		AddOperator("extract", 1/0.45, 13). // µ = 2.22/s, external 13/s
//		AddOperator("match", 2.0, 0).
//		Connect("extract", "match", 1).
//		Build()
//	if err != nil { ... }
//	model, err := drs.NewModelFromTopology(topo)
//	if err != nil { ... }
//	alloc, err := model.AssignProcessors(22) // Algorithm 1
//	est, err := model.ExpectedSojourn(alloc)  // Equation (3)
//
// The repository also contains the substrates the paper's evaluation needs
// (a Storm-like operator engine, a discrete-event queueing simulator, a
// cluster/negotiator model and the two test applications' calibrated
// profiles); those live under internal/ and are driven by the drsctl and
// drs-experiments commands and the repository benchmarks. The package's
// Example is the library's core workflow, checked by go test. See
// DESIGN.md for the full inventory.
package drs

import (
	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/loop"
	"github.com/drs-repro/drs/internal/metrics"
	"github.com/drs-repro/drs/internal/topology"
	"github.com/drs-repro/drs/internal/wal"
)

// Model is the DRS performance model (paper §III-B). Build one per
// measurement snapshot with NewModel or NewModelFromTopology; its methods
// AssignProcessors, MinProcessors, ExpectedSojourn and LowerBound are the
// paper's optimization toolkit.
type Model = core.Model

// OpRates carries one operator's measured mean arrival rate λ_i and mean
// per-processor service rate µ_i.
type OpRates = core.OpRates

// NewModel builds a performance model directly from measured rates.
// lambda0 is λ0, the external arrival rate into the whole application.
func NewModel(lambda0 float64, ops []OpRates) (*Model, error) {
	return core.NewModel(lambda0, ops)
}

// NewModelFromTopology derives the per-operator arrival rates by solving
// the Jackson traffic equations over the topology (loops included) and
// builds the model from them.
func NewModelFromTopology(t *Topology) (*Model, error) {
	return core.NewModelFromTopology(t)
}

// Topology describes an operator network: operators with service rates and
// external arrivals, connected by edges with selectivities.
type Topology = topology.Topology

// TopologyBuilder accumulates operators and edges; Build validates and
// solves the traffic equations once.
type TopologyBuilder = topology.Builder

// NewTopologyBuilder returns an empty topology builder.
func NewTopologyBuilder() *TopologyBuilder { return topology.NewBuilder() }

// Controller is the DRS decision loop: feed it measurement Snapshots, get
// rebalance/scale Decisions (paper §III-C and §IV).
type Controller = core.Controller

// ControllerConfig tunes the controller (mode, Kmax/Tmax, churn guards,
// pool geometry).
type ControllerConfig = core.ControllerConfig

// Snapshot is one round of smoothed measurements: λ̂0, per-operator λ̂_i and
// µ̂_i, the measured mean sojourn E[T̂], the allocation in force and the
// available processor budget.
type Snapshot = core.Snapshot

// Decision is the controller's verdict for one snapshot.
type Decision = core.Decision

// Mode selects which of the paper's two optimization problems the
// controller solves each round.
type Mode = core.Mode

// Controller modes: Program (4) under a fixed budget, or Program (6) under
// a latency target.
const (
	ModeMinLatency  = core.ModeMinLatency
	ModeMinResource = core.ModeMinResource
)

// Action is what a Decision asks the CSP layer to do.
type Action = core.Action

// Possible decision actions.
const (
	ActionNone      = core.ActionNone
	ActionRebalance = core.ActionRebalance
	ActionScaleOut  = core.ActionScaleOut
	ActionScaleIn   = core.ActionScaleIn
)

// NewController validates the config and returns a controller.
func NewController(cfg ControllerConfig) (*Controller, error) {
	return core.NewController(cfg)
}

// Stepper is any decision policy consuming Snapshots — *Controller or the
// ThresholdController baseline.
type Stepper = core.Stepper

// ThresholdController is a utilization-threshold autoscaler baseline (the
// reactive-policy family); it needs no queueing model and exists for
// comparison against DRS (see experiments' baseline run).
type ThresholdController = core.ThresholdController

// Measurer implements the paper's measurer module: it aggregates
// per-interval operator counters into rate estimates, each the window
// average of the last 6 intervals, and produces controller Snapshots.
type Measurer = metrics.Measurer

// MeasurerConfig parameterizes the measurer.
type MeasurerConfig = metrics.MeasurerConfig

// IntervalReport is one collection interval's raw counters.
type IntervalReport = metrics.IntervalReport

// OpInterval is one operator's counters within an interval.
type OpInterval = metrics.OpInterval

// ExecutorProbe instruments one executor with the paper's per-tuple
// measurement, every served tuple a sample (Nm = 1); safe for concurrent
// use and cheap on the fast path.
type ExecutorProbe = metrics.ExecutorProbe

// NewMeasurer validates the config and builds a measurer.
func NewMeasurer(cfg MeasurerConfig) (*Measurer, error) {
	return metrics.NewMeasurer(cfg)
}

// NewExecutorProbe builds a probe that times every served tuple.
func NewExecutorProbe() *ExecutorProbe { return metrics.NewExecutorProbe() }

// Supervisor closes the DRS control loop of §IV against a live system: it
// polls its target's measurements on a configurable cadence, feeds them
// through the decision policy, and actuates rebalance/scale verdicts —
// with cooldown hysteresis between actions and suppression of
// repeatedly-failing ones. It is the paper's DRS daemon (the component
// that "periodically pulls metrics, re-solves the allocation, and
// rebalances when the model says it pays off").
type Supervisor = loop.Supervisor

// SupervisorConfig assembles a supervisor: the target, the operator order,
// the decision policy, the resource pool, and the loop cadence Tm.
type SupervisorConfig = loop.Config

// SupervisorEvent is one decision round that mattered: an applied action,
// a failed apply, or a suppressed retry.
type SupervisorEvent = loop.Event

// SupervisorTarget is the system under supervision: measurement intervals
// out, allocations in. Implement it over your own runtime, or use the
// built-in engine through internal/loop.EngineTarget (as drsctl schedule
// does).
type SupervisorTarget = loop.Target

// SupervisorPool is the resource negotiator the supervisor charges
// transitions to (the paper's Appendix-B negotiator). *cluster.Pool
// implements it; FixedPool serves constant-budget deployments.
type SupervisorPool = loop.Pool

// PoolTransition describes one applied resource-pool change and its
// modeled service-disruption pause (the §V transition costs) — the value
// a SupervisorPool implementation returns.
type PoolTransition = cluster.Transition

// NewSupervisor validates the config, fills defaults (a windowed Measurer
// over the named operators, 4·Interval cooldown, 3-failure suppression)
// and builds a supervisor.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	return loop.New(cfg)
}

// FixedPool returns a SupervisorPool with a constant processor budget and
// free rebalances — the ModeMinLatency deployment where only the split is
// negotiable.
func FixedPool(kmax int) SupervisorPool { return loop.FixedPool(kmax) }

// ClusterPool is the simulated machine pool below the CSP layer: machines
// of SlotsPerMachine executor slots each, priced transitions, and the
// Appendix-B negotiator arithmetic. It implements SupervisorPool directly
// (single-topology deployments) and is what a Scheduler arbitrates
// (multi-tenant deployments).
type ClusterPool = cluster.Pool

// ClusterPoolConfig describes the pool geometry and its transition costs.
type ClusterPoolConfig = cluster.PoolConfig

// ClusterCostModel prices rebalance, machine cold-start and release
// pauses (the paper's §V transition costs).
type ClusterCostModel = cluster.CostModel

// NewClusterPool builds a pool with the given starting machine count.
func NewClusterPool(cfg ClusterPoolConfig, startMachines int) (*ClusterPool, error) {
	return cluster.NewPool(cfg, startMachines)
}

// MachineInfo is one pool machine's identity and lifecycle state — the
// unit the failure domain operates on. Crash one with ClusterPool.Fail
// (or Scheduler.FailMachine, which also re-arbitrates the leases), return
// it with Recover, flag degradation with SetStraggler.
type MachineInfo = cluster.MachineInfo

// MachineUse is one live machine's row of a placement snapshot: how its
// slots split between the reserved share and tenant leases. The scheduler
// rebuilds the slot → machine mapping on every arbitration; stragglers
// are filled last.
type MachineUse = cluster.MachineUse

// PoolChurnEvent is a machine lifecycle transition delivered to the
// pool's churn listeners — the scheduler's out-of-band re-arbitration
// trigger.
type PoolChurnEvent = cluster.ChurnEvent

// Scheduler is the multi-tenant cluster arbiter: it owns one machine pool
// and arbitrates slot grants among N supervised topologies — weighted
// max-min fairness over free capacity, preemption toward a Tmax-violating
// higher-priority tenant under the Appendix-B cost/benefit guard. It is
// the paper's shared-cluster setting (§V runs several applications on one
// Storm cluster) generalized from the single control loop.
type Scheduler = cluster.Scheduler

// SchedulerConfig assembles a Scheduler around a cluster pool.
type SchedulerConfig = cluster.SchedulerConfig

// SchedulerEvent is one arbitration outcome — a grant, shrink, preemption
// or machine change — with its modeled transition cost.
type SchedulerEvent = cluster.SchedulerEvent

// SchedulerState is an atomic snapshot of pool, grants and demands.
type SchedulerState = cluster.SchedulerState

// Tenant is one topology's lease on a scheduled pool. It implements
// SupervisorPool, so a Supervisor drives it exactly like a private pool —
// except Resize is a request the arbiter may grant partially, and the
// grant can shrink between ticks when a higher-priority tenant preempts.
type Tenant = cluster.Tenant

// TenantConfig registers one topology with the Scheduler: name, max-min
// weight, preemption priority and floor, and the initial grant.
type TenantConfig = cluster.TenantConfig

// TenantReport is a tenant's utility self-assessment — the marginal
// benefit/cost of one slot in cross-tenant-comparable units — pushed by
// its Supervisor every round and consumed by the preemption guard.
type TenantReport = cluster.TenantReport

// NewScheduler validates the config and takes ownership of the pool.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	return cluster.NewScheduler(cfg)
}

// WAL is the segmented, CRC-framed write-ahead log behind durable
// admission (`drsctl serve -wal-dir`): appends are group-committed
// (leader flush + write(2) before ACK, fsync on the SyncEvery cadence),
// segments rotate at SegmentBytes and are pruned once the completion
// watermark passes them. See DESIGN.md §10 for the on-disk format and
// recovery state machine.
type WAL = wal.Log

// WALOptions configures a WAL: directory, segment size, group-commit
// window and fsync cadence.
type WALOptions = wal.Options

// WALRecord is one recovered record: its sequence number and payload.
type WALRecord = wal.Record

// WALRecovered reports what OpenWAL reconstructed from disk: the durable
// watermark, the unacknowledged tail to replay, and any torn-tail bytes
// truncated from the last segment.
type WALRecovered = wal.Recovered

// WALCheckpoint is the control-plane state saved next to the segments —
// the supervisor's allocation, round count and cooldown — that a
// restarted process resumes from; its lease is the allocation's total. The log itself holds the
// sequence numbers and the completion watermark.
type WALCheckpoint = wal.Checkpoint

// OpenWAL opens (or creates) the log in o.Dir, scans the segments,
// truncates a torn tail in the last segment if the process died
// mid-write, and returns the log plus everything recovery needs.
func OpenWAL(o WALOptions) (*WAL, WALRecovered, error) { return wal.Open(o) }

// SaveWALCheckpoint atomically persists a checkpoint next to the
// segments (write to temp file, fsync, rename).
func SaveWALCheckpoint(dir string, c WALCheckpoint) error { return wal.SaveCheckpoint(dir, c) }

// LoadWALCheckpoint reads the checkpoint if one exists; ok reports
// whether it was present and valid.
func LoadWALCheckpoint(dir string) (c WALCheckpoint, ok bool, err error) {
	return wal.LoadCheckpoint(dir)
}
