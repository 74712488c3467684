// Package obs is the observability layer: a structured, bounded,
// allocation-disciplined decision log for the control plane, a sampled
// per-tuple tracer for the data plane, and a hand-rolled Prometheus-format
// metrics registry. Log and Tracer are two instantiations of one record
// pipeline (pipe.go) on the decision-log plugin idiom popularized by OPA:
// emitters copy fixed-shape records into a sharded ring buffer
// (sample-then-store, drop-counter on overflow, never block), and a single
// drainer goroutine encodes NDJSON to a sink off the hot path. The
// package depends only on the standard library so every
// subsystem (engine, cluster, ingest, loop, worker, wal) can emit into it
// without import cycles.
package obs

import (
	"cmp"
	"sync/atomic"
	"time"
)

// Kind tags what control decision a Record captures. The zero Kind is
// invalid so a forgotten tag is visible in the log.
type Kind uint8

// Decision kinds. Scheduler kinds mirror cluster.SchedulerEvent kinds
// one-for-one; the rest cover the ingest gate, the control loop, the
// engine's self-heal path and the worker tier.
const (
	KindInvalid Kind = iota

	// Scheduler (cluster) decisions.
	KindRegister       // tenant lease registered; To = initial grant
	KindGrant          // grant changed by arbitration; From -> To slots
	KindShrink         // voluntary shrink; From -> To slots
	KindPreempt        // Appendix-B guarded transfer; see Gain/Loss/Lambda0 fields
	KindSlotsLost      // machine failure took slots; From -> To
	KindRelease        // tenant lease released (no longer emitted; kept so older logs decode)
	KindPool           // pool capacity changed; From -> To slots
	KindPriority       // tenant priority changed; To = new priority
	KindMachineFail    // machine failed; To = machine id
	KindMachineRecover // machine recovered; To = machine id
	KindStraggler      // machine marked straggler; To = machine id
	KindStragglerClear // straggler cleared; To = machine id

	// Ingest gate decisions.
	//
	// KindShedPlan: the gate re-planned admission; Fraction/Rate/Lambda0/Flag
	// are the plan, and From/To say what it was planned on — the allocation
	// total and the grant Kmax of the supervisor snapshot it read (both 0
	// before the first snapshot). After a refit, the next plan's From equals
	// that refit's To, the executor total it applied: a plan that lags it was
	// sized on capacity the action had already replaced.
	KindShedPlan

	// Control loop (supervisor) decisions.
	KindRefit       // scale decision applied; From -> To executors
	KindSuppress    // scale decision suppressed (cooldown/hysteresis)
	KindRefitFailed // actuation failed; Detail holds the action

	// Engine / worker tier events.
	KindHeal        // remote binding swapped local; Peer = bolt, To = slot
	KindWorkerJoin  // worker registered; To = machine id
	KindWorkerDeath // worker deregistered/died; To = machine id

	kindCount // sentinel; keep last
)

// kindNames is the canonical wire name per kind, used by the NDJSON codec
// and by /metrics label sets. Names are stable: changing one breaks log
// consumers.
var kindNames = [kindCount]string{
	KindInvalid:        "invalid",
	KindRegister:       "register",
	KindGrant:          "grant",
	KindShrink:         "shrink",
	KindPreempt:        "preempt",
	KindSlotsLost:      "slots-lost",
	KindRelease:        "release",
	KindPool:           "pool",
	KindPriority:       "priority",
	KindMachineFail:    "machine-fail",
	KindMachineRecover: "machine-recover",
	KindStraggler:      "straggler",
	KindStragglerClear: "straggler-clear",
	KindShedPlan:       "shed-plan",
	KindRefit:          "refit",
	KindSuppress:       "suppress",
	KindRefitFailed:    "refit-failed",
	KindHeal:           "heal",
	KindWorkerJoin:     "worker-join",
	KindWorkerDeath:    "worker-death",
}

// String returns the canonical wire name for the kind.
func (k Kind) String() string {
	if k >= kindCount {
		return "invalid"
	}
	return kindNames[k]
}

// KindFromString maps a wire name back to its Kind (false for unknown
// names, including "invalid" — no decider emits it).
func KindFromString(s string) (Kind, bool) {
	for k := KindRegister; k < kindCount; k++ {
		if kindNames[k] == s {
			return k, true
		}
	}
	return KindInvalid, false
}

// Record is one control decision in fixed shape: every kind uses the same
// struct so emission is a value copy into a preallocated ring slot — zero
// heap allocations. String fields must be header copies of strings that
// already exist (tenant names, bolt names, constant action words), never
// formatted on the emit path. Field semantics by kind:
//
//   - preempt: Tenant = claimant, Peer = victim, From -> To = victim's
//     grant change, Gain = claimant GrowBenefit (util/slot), Loss = victim
//     ShrinkCost, Lambda0/PeerLambda0 = claimant/victim external arrival
//     rates, PauseNS = rebalance pause charged by the Appendix-B verdict,
//     Flag = the tenant pair was priority-ordered (claimant outranks victim).
//   - shed-plan: Tenant = plan scope, Fraction = admit fraction,
//     Rate = sustainable rate (tuples/s), Lambda0 = offered rate,
//     Flag = scale-out viable, Gain/Loss = admitted/shed record deltas
//     since the previous plan (scenario drivers; the live gate leaves
//     them zero).
//   - refit/suppress/refit-failed: Tenant = topology, Detail = the
//     decision's reason (the controller's, or the forced shrink's cause),
//     From -> To = executor total in force before the event -> the
//     event's target total, Gain = estimated sojourn (s), PauseNS =
//     estimated rebalance pause, Flag = the shrink was forced (preemption
//     or machine failure) rather than chosen by the controller.
//   - scheduler kinds: Tenant = lease, From -> To = slot change; machine
//     kinds put the machine id in To.
//   - heal: Peer = bolt name, To = executor slot index.
//   - worker-join/worker-death: Peer = worker name, To = machine id.
type Record struct {
	Seq         uint64  // global emission sequence (assigned by Emit)
	At          int64   // unix nanoseconds (stamped by Emit when zero)
	Kind        Kind    // decision kind; see kind docs
	Tenant      string  // acting tenant/lease/topology ("" when n/a)
	Peer        string  // counterparty: preemption victim, bolt, worker
	From        int     // prior value (slots, executors)
	To          int     // new value (slots, executors, machine id)
	Gain        float64 // claimant benefit (util/slot) or estimated sojourn
	Loss        float64 // victim shrink cost (util/slot)
	Lambda0     float64 // claimant external arrival rate (tuples/s)
	PeerLambda0 float64 // victim external arrival rate (tuples/s)
	Fraction    float64 // admit/shed fraction in [0,1]
	Rate        float64 // sustainable rate (tuples/s)
	PauseNS     int64   // rebalance pause charged to the decision
	Flag        bool    // kind-dependent boolean verdict input
	Detail      string  // short tag: an action word, or a decision's reason
}

// Config configures a Log. The zero value is usable: sampling every
// record, no sink (manual Sweep only). The rings are the pipe defaults,
// 4 shards x 1024 records swept every 250ms.
type Config struct {
	// SamplePermille keeps N records per 1000 emissions (default 1000 =
	// keep everything). Sampling is deterministic over the emission
	// sequence, so identical runs keep identical records.
	SamplePermille int
	// Sink receives drained NDJSON batches. Nil means no drainer
	// goroutine runs; records wait in the rings for a manual Sweep.
	Sink Sink
	// Now supplies timestamps (default time.Now).
	//
	//checkdoc:testonly test seam: the log's tests stamp records from a fixed clock
	Now func() time.Time
}

// Log is a bounded, sharded, sampled decision log: the pipe[Record]
// instantiation. Its own policy is the seq-thinning sampler and the At
// stamp. All methods are nil-safe: a nil *Log ignores emissions, so
// wiring is optional everywhere and the disabled path costs one branch.
type Log struct {
	p       pipe[Record]
	now     func() time.Time
	thinned atomic.Uint64 // records skipped by sampling
}

// NewLog builds a decision log. If cfg.Sink is non-nil a single drainer
// goroutine starts sweeping the rings; Close stops it and flushes.
func NewLog(cfg Config) *Log { return newLog(cfg, 0, 0, 0) }

// newLog is NewLog over rings of the given shape; zeros mean the pipe
// defaults.
func newLog(cfg Config, shards, capacity int, flushEvery time.Duration) *Log {
	l := &Log{now: cfg.Now}
	if l.now == nil {
		l.now = time.Now
	}
	l.p.init(shards, capacity, cfg.SamplePermille, flushEvery, cfg.Sink,
		func(a, b Record) int { return cmp.Compare(a.Seq, b.Seq) }, AppendRecord, nil)
	return l
}

// ThinAdmit is the deterministic thinning verdict: of every thousand
// sequence numbers, admit ⌊n·p/1000⌋ − ⌊(n−1)·p/1000⌋ — the exact long-run
// fraction with no RNG, spread evenly instead of front-loaded, so a steady
// client meets no bursts of bad luck. permille ≥ 1000 admits everything and
// ≤ 0 nothing. The decision log's sampler, the ingest gate and its
// virtual-time twin (experiments' gateClient) all thin with it.
func ThinAdmit(seq uint64, permille int64) bool {
	if permille >= permilleScale {
		return true
	}
	if permille <= 0 {
		return false
	}
	p := uint64(permille)
	return seq*p/permilleScale != (seq-1)*p/permilleScale
}

// Emit records one decision. The record is copied by value into a ring
// slot under a shard mutex — no allocation, no blocking; if the shard is
// full the record is dropped and counted. Emit assigns Seq always and At
// when the caller left it zero (deterministic drivers stamp their own
// virtual time); other fields are the caller's. Safe on a nil log (no-op)
// and for concurrent use.
func (l *Log) Emit(r *Record) {
	if l == nil {
		return
	}
	seq := l.p.seq.Add(1)
	if !ThinAdmit(seq, l.p.permille) {
		l.thinned.Add(1)
		return
	}
	at := r.At
	if at == 0 {
		at = l.now().UnixNano()
	}
	if slot, mu := l.p.put(seq, r); slot != nil {
		slot.Seq, slot.At = seq, at
		mu.Unlock()
	}
}

// Stats is a point-in-time account of the log's traffic.
type Stats struct {
	Offered uint64 // Emit calls seen (pre-sampling)
	Thinned uint64 // emissions skipped by the sampling knob
	Dropped uint64 // records lost to ring overflow
}

// Stats reports emission/sampling/drop counters. Safe on a nil log.
func (l *Log) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	return Stats{
		Offered: l.p.seq.Load(),
		Thinned: l.thinned.Load(),
		Dropped: l.p.dropped.Load(),
	}
}

// Sweep drains every shard and hands the records, ordered by emission
// sequence, to fn. It is the synchronous form of the drainer loop; it
// shares the drainer's scratch, so do not call it concurrently with a
// running drainer's sweeps (Close first) or from multiple goroutines.
// Safe on a nil log.
//
//checkdoc:testonly test hook: a test reads a sinkless log back without waiting on a drainer
func (l *Log) Sweep(fn func(*Record)) {
	if l == nil {
		return
	}
	recs := l.p.collect()
	for i := range recs {
		fn(&recs[i])
	}
}

// Close stops the drainer (if any), flushes buffered records to the sink,
// and closes the sink. Safe on a nil log and safe to call twice.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	return l.p.close()
}
