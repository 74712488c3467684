package node

import (
	"fmt"

	"github.com/drs-repro/drs/internal/obs"
)

// sojournBounds are the bucket boundaries (seconds) for the per-tenant
// sojourn histogram: sub-millisecond through multi-second, matching the
// latency range the experiments sweep.
var sojournBounds = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// shedFracBounds are the bucket boundaries for the per-tenant shed
// fraction histogram (dimensionless, 0..1).
var shedFracBounds = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9}

// traceBoundsNS are the bucket boundaries (nanoseconds) of the trace
// latency-breakdown histograms: microseconds through seconds, log-spaced,
// covering queue waits on an idle executor up to sojourns at the latency
// target.
var traceBoundsNS = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// metrics is the node's exposition state: the registry the
// /metrics handler scrapes and the per-tenant histograms the control loop
// observes into. Built in two steps because the histograms must exist
// before loop.New while most scrape sources exist only after.
type metrics struct {
	reg      *obs.Registry
	sojourn  *obs.Histogram
	shedFrac *obs.Histogram
}

// newMetrics creates the registry and the per-tenant histograms that
// loop.Config needs up front.
func newMetrics(tenant string) *metrics {
	reg := obs.NewRegistry()
	tl := fmt.Sprintf("tenant=%q", tenant)
	return &metrics{
		reg: reg,
		sojourn: reg.Histogram("drs_tenant_sojourn_seconds",
			"Measured mean sojourn per control round, by tenant.", sojournBounds, tl),
		shedFrac: reg.Histogram("drs_tenant_shed_fraction",
			"Shed fraction per control round, by tenant.", shedFracBounds, tl),
	}
}

// traceAssembler builds the trace assembler whose completed traces fold
// into this registry: topology-wide queue-wait / service / shuttle
// breakdown histograms plus per-bolt queue-wait and service families —
// and, when set, hand each to onTrace. The assembler runs on the tracer's
// drainer goroutine; histograms are atomic, so scrapes never block it.
func (m *metrics) traceAssembler(bolts []string, onTrace func(obs.Trace)) *obs.Assembler {
	reg := m.reg
	boltQ := make(map[string]*obs.Histogram, len(bolts))
	boltS := make(map[string]*obs.Histogram, len(bolts))
	for _, b := range bolts {
		l := fmt.Sprintf("bolt=%q", b)
		boltQ[b] = reg.Histogram("drs_trace_bolt_queue_wait_ns",
			"Per-span queue wait by bolt, from sampled traces.", traceBoundsNS, l)
		boltS[b] = reg.Histogram("drs_trace_bolt_service_ns",
			"Per-span service time by bolt, from sampled traces.", traceBoundsNS, l)
	}
	return obs.NewAssembler(obs.AssemblerConfig{
		QueueWait: reg.Histogram("drs_trace_queue_wait_ns",
			"Summed queue wait per completed sampled trace.", traceBoundsNS, ""),
		Service: reg.Histogram("drs_trace_service_ns",
			"Summed service time per completed sampled trace.", traceBoundsNS, ""),
		Shuttle: reg.Histogram("drs_trace_shuttle_ns",
			"Summed remote shuttle time per completed sampled trace.", traceBoundsNS, ""),
		BoltQueueWait: boltQ,
		BoltService:   boltS,
		OnComplete:    onTrace,
	})
}

// register wires every metric family against the assembled node's live
// components. Nil components (no WAL, no worker tier, no decision log)
// skip their families, so the exposition always reflects what is actually
// running. All reads go through the components' own thread-safe accessors
// at scrape time.
func (m *metrics) register(n *Node) {
	reg := m.reg
	gate, run, sup := n.gate, n.tenant.Run, n.tenant.Sup
	lease, pool := n.lease, n.pool
	walLog, coord, dlog, tracer := n.walLog, n.coord, n.dlog, n.tracer

	// Admission gate: offered/admitted and the shed split are cumulative
	// counters; the plan echoes are gauges.
	reg.Func("drs_gate_offered_total", "Records clients presented to the admission gate.",
		obs.Counter, "", func() float64 { return float64(gate.Stats().Offered) })
	reg.Func("drs_gate_admitted_total", "Records admitted into the ingest ring.",
		obs.Counter, "", func() float64 { return float64(gate.Stats().Admitted) })
	reg.Func("drs_gate_shed_total", "Records refused by the gate, by reason.",
		obs.Counter, `reason="rate-limit"`, func() float64 { return float64(gate.Stats().ShedRateLimit) })
	reg.Func("drs_gate_shed_total", "Records refused by the gate, by reason.",
		obs.Counter, `reason="overload"`, func() float64 { return float64(gate.Stats().ShedOverload) })
	reg.Func("drs_gate_shed_total", "Records refused by the gate, by reason.",
		obs.Counter, `reason="backlog"`, func() float64 { return float64(gate.Stats().ShedBacklog) })
	reg.Func("drs_gate_admit_fraction", "Admit fraction of the current shed plan.",
		obs.Gauge, "", func() float64 { return gate.Stats().AdmitFraction })
	reg.Func("drs_gate_sustainable_rate", "Sustainable rate (records/s) of the current shed plan.",
		obs.Gauge, "", func() float64 { return gate.Stats().SustainableRate })
	reg.Func("drs_gate_scale_out_viable", "Whether the Appendix-B guard says scale-out beats shedding (1/0).",
		obs.Gauge, "", func() float64 {
			if gate.Stats().ScaleOutViable {
				return 1
			}
			return 0
		})

	// Ingest ring: its backlog, the storage holding it (grown and shrunk
	// with the backlog) and the bound at which a push is refused.
	ring := gate.Ring()
	const ringHelp = "Ingest ring slots, by kind: queued records, allocated storage, the bound a push is refused at."
	reg.Func("drs_ingest_ring_slots", ringHelp,
		obs.Gauge, `kind="queued"`, func() float64 { q, _, _ := ring.Slots(); return float64(q) })
	reg.Func("drs_ingest_ring_slots", ringHelp,
		obs.Gauge, `kind="allocated"`, func() float64 { _, a, _ := ring.Slots(); return float64(a) })
	reg.Func("drs_ingest_ring_slots", ringHelp,
		obs.Gauge, `kind="bound"`, func() float64 { _, _, b := ring.Slots(); return float64(b) })

	// Client registry: the clients it holds now, and the idle ones the
	// replan rounds have evicted.
	reg.Func("drs_ingest_clients", "Clients registered at the ingest gate.",
		obs.Gauge, "", func() float64 { return float64(gate.Stats().Clients) })
	reg.Func("drs_ingest_clients_evicted_total", "Idle clients the ingest gate has evicted from its registry.",
		obs.Counter, "", func() float64 { return float64(gate.Stats().Evicted) })

	// Engine: root-tuple books and the per-bolt cumulative counters the
	// DrainInterval folds (probe resets on rebalance do not zero these).
	reg.Func("drs_engine_roots_started_total", "Root tuples injected by spouts.",
		obs.Counter, "", func() float64 { s, _, _ := run.RootTotals(); return float64(s) })
	reg.Func("drs_engine_roots_completed_total", "Root tuples fully processed.",
		obs.Counter, "", func() float64 { _, c, _ := run.RootTotals(); return float64(c) })
	reg.Func("drs_engine_sojourn_seconds_total", "Summed end-to-end sojourn of completed root tuples.",
		obs.Counter, "", func() float64 { _, _, ns := run.RootTotals(); return float64(ns) / 1e9 })
	for _, bolt := range run.BoltNames() {
		labels := fmt.Sprintf("bolt=%q", bolt)
		reg.Func("drs_engine_bolt_arrivals_total", "Tuples that arrived at each bolt.",
			obs.Counter, labels, func() float64 { a, _, _ := run.BoltTotals(bolt); return float64(a) })
		reg.Func("drs_engine_bolt_served_total", "Tuples each bolt finished serving.",
			obs.Counter, labels, func() float64 { _, s, _ := run.BoltTotals(bolt); return float64(s) })
		reg.Func("drs_engine_bolt_backlog", "Tuples queued or in service at each bolt's executors.",
			obs.Gauge, labels, func() float64 { return float64(run.QueueLengths()[bolt]) })
	}
	reg.Func("drs_engine_executor_failures_total", "Remote executor failures healed back to local bindings.",
		obs.Counter, "", func() float64 { return float64(run.ExecutorFailures()) })
	reg.Func("drs_engine_replayed_total", "In-flight batches replayed after a remote failure.",
		obs.Counter, "", func() float64 { return float64(run.Replayed()) })

	// Control loop and lease.
	reg.Func("drs_loop_rounds_total", "Control rounds the supervisor has completed.",
		obs.Counter, "", func() float64 { return float64(sup.Rounds()) })
	reg.Func("drs_lease_granted_slots", "Executor slots the scheduler currently grants this tenant.",
		obs.Gauge, "", func() float64 { return float64(lease.Granted()) })
	reg.Func("drs_pool_machines", "Machines currently provisioned in the pool.",
		obs.Gauge, "", func() float64 { return float64(pool.Machines()) })

	// Durable admission (WAL) — only when running durable.
	if walLog != nil {
		reg.Func("drs_wal_tail_seq", "Highest sequence number appended to the WAL.",
			obs.Counter, "", func() float64 { return float64(walLog.TailSeq()) })
		reg.Func("drs_wal_watermark", "Contiguous completion watermark retired from the WAL.",
			obs.Counter, "", func() float64 { return float64(walLog.Watermark()) })
		reg.Func("drs_wal_segments", "Live WAL segment files.",
			obs.Gauge, "", func() float64 { return float64(walLog.Segments()) })
	}

	// Worker tier — only when a coordinator listens.
	if coord != nil {
		reg.Func("drs_worker_live", "Worker processes currently registered.",
			obs.Gauge, "", func() float64 { return float64(len(coord.Workers())) })
		reg.Func("drs_worker_joins_total", "Worker registrations accepted.",
			obs.Counter, "", func() float64 { j, _ := coord.Counts(); return float64(j) })
		reg.Func("drs_worker_deaths_total", "Worker leases lapsed or connections lost.",
			obs.Counter, "", func() float64 { _, d := coord.Counts(); return float64(d) })
	}

	// The model's own verdict beside the measured trace decomposition: the
	// predicted mean sojourn E[T] (Equation 3) for the allocation in force,
	// read at scrape time from the supervisor's model of its latest round.
	// A scrape therefore reads measured (drs_trace_*) and predicted sojourn
	// from the same instant — the measured-vs-model comparison is one query.
	reg.Func("drs_model_predicted_sojourn_ns", "Model-predicted mean sojourn E[T] for the current allocation.",
		obs.Gauge, "", func() float64 { et, _ := sup.ModelSojourn(); return et * 1e9 })
	// What the engine adds to the model's station: measured minus predicted
	// for the same allocation, the paper's Fig. 7 as a live series. Zero
	// until a round has measured the allocation in force (LastSnapshot
	// carries no sojourn across an applied action).
	reg.Func("drs_model_residual_ns", "Measured minus model-predicted mean sojourn for the current allocation (0 until a round has measured it).",
		obs.Gauge, "", func() float64 {
			snap, _ := sup.LastSnapshot()
			et, ok := sup.ModelSojourn()
			if !ok || snap.MeasuredSojourn == 0 {
				return 0
			}
			return (snap.MeasuredSojourn - et) * 1e9
		})

	// Tracing self-accounting — only when the tracer is enabled.
	if tracer != nil {
		reg.Func("drs_trace_spans_total", "Spans emitted into the tracer's rings.",
			obs.Counter, "", func() float64 { return float64(tracer.Stats().Spans) })
		reg.Func("drs_trace_spans_dropped_total", "Spans dropped on tracer ring overflow.",
			obs.Counter, "", func() float64 { return float64(tracer.Stats().Dropped) })
		if asm := tracer.Assembler(); asm != nil {
			reg.Func("drs_trace_started_total", "Sampled traces the assembler has seen spans for.",
				obs.Counter, "", func() float64 { return float64(asm.Stats().Started) })
			reg.Func("drs_trace_completed_total", "Sampled traces assembled to completion.",
				obs.Counter, "", func() float64 { return float64(asm.Stats().Completed) })
			reg.Func("drs_trace_lost_total", "Spans discarded because the pending-trace table was full.",
				obs.Counter, "", func() float64 { return float64(asm.Stats().Lost) })
			reg.Func("drs_trace_pending", "Traces currently awaiting their root span.",
				obs.Gauge, "", func() float64 { return float64(asm.Stats().Pending) })
		}
	}

	// Decision log self-accounting — only when the log is enabled.
	if dlog != nil {
		reg.Func("drs_decision_log_offered_total", "Decision records offered to the log.",
			obs.Counter, "", func() float64 { return float64(dlog.Stats().Offered) })
		reg.Func("drs_decision_log_dropped_total", "Decision records dropped on ring overflow.",
			obs.Counter, "", func() float64 { return float64(dlog.Stats().Dropped) })
	}
}
