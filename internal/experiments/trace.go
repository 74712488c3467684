package experiments

import (
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"time"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/ingest"
	"github.com/drs-repro/drs/internal/node"
	"github.com/drs-repro/drs/internal/obs"
	"github.com/drs-repro/drs/internal/scenario"
	"github.com/drs-repro/drs/internal/stats"
	"github.com/drs-repro/drs/internal/worker"
)

// The trace experiment: the per-tuple tracing tentpole's golden arc. It
// replays the chaos scenario's workload — per-tenant recorded arrival
// traces, token-bucket admission so the surges genuinely shed — through
// the live assembly path (internal/node, over its real TCP front door)
// three times: once all-local at a production sampling rate, once with
// the count stage spread over three live worker daemons on loopback TCP
// at the same rate, and once all-local with every root sampled. The
// audit the test locks:
//
//   - the sampled set is a pure function of the admit sequence: the ids
//     that complete are exactly {seq : hash(seq) wins}, bit-identical
//     between the local and the 3-worker remote run;
//   - every sampled root yields exactly one complete trace, and every
//     trace telescopes exactly — queue + service + shuttle == sojourn,
//     no gaps, no overlaps, remote hops decomposed across the wire;
//   - with every root sampled, the traces' summed sojourn equals the
//     engine's own root-log books to the nanosecond: the trace subsystem
//     measures the same latency the books account.
const (
	// traceSamplePermille is the production-flavored sampling rate of the
	// local and remote variants (250 of 1000 roots).
	traceSamplePermille = 250
	// tracePerTenant is the offered arrivals per tenant on the unscaled
	// scenario (never fewer than 200 on a scaled one).
	tracePerTenant = 600
	// traceRemoteMachines spreads the count stage over this many workers,
	// two executors each: all six of count's, none of sink's.
	traceRemoteMachines = 3
	// traceLocalSpans / traceRemoteSpans are the exact per-trace segment
	// span counts on the ingest -> count -> sink chain: gate + two hops of
	// (queue, service), the remote hop adding one shuttle segment.
	traceLocalSpans  = 5
	traceRemoteSpans = 6
	// traceInFlight bounds the sampled roots offered whose trace has not
	// completed. Every span in the node tracer's rings (4 shards × 1 024,
	// swept every 250 ms) belongs to such a trace, and a trace emits at
	// most traceRemoteSpans segments plus its root, so half the rings
	// always has room: pacing on completions keeps SpansDropped at 0.
	traceInFlight = 4 * 1024 / (2 * (traceRemoteSpans + 1))
	// traceInterval is the node's placement and replan cadence, and the
	// retry-after of a backlog refusal.
	traceInterval = 10 * time.Millisecond
	// traceWait bounds the wait for a sampled trace to complete.
	traceWait = 10 * time.Second
)

// traceWorkload derives the deterministic workload from the seeded spec
// exactly like the worker equivalence harness: seeded arrival gaps and
// token-bucket admission at 60% of their mean rate. The admitted entries —
// one tenant name each — ARE the offer sequence, so the gate's admit seq
// space, and with it the sampled set, is identical across variants.
func traceWorkload(spec scenario.Spec, perTenant int) (tenants []string, shed map[string]int64, err error) {
	tl, err := scenario.Compile(spec)
	if err != nil {
		return nil, nil, err
	}
	shed = make(map[string]int64)
	for ti, ts := range spec.Tenants {
		proc, err := tl.Arrivals(ts.Name)
		if err != nil {
			return nil, nil, err
		}
		rng := stats.NewRNG(uint64(spec.Seed) + uint64(ti)*101)
		gaps, total := make([]float64, perTenant), 0.0
		for i := range gaps {
			gaps[i] = proc.NextInterArrival(rng)
			total += gaps[i]
		}
		rate := float64(perTenant) / total * 0.6
		const burst = 20.0
		tokens := burst
		for _, gap := range gaps {
			tokens = min(burst, tokens+gap*rate)
			if tokens >= 1 {
				tokens--
				tenants = append(tenants, ts.Name)
			} else {
				shed[ts.Name]++
			}
		}
	}
	return tenants, shed, nil
}

// traceHopBolts is the count stage both the node and the worker daemons
// host: a stateless hop forwarding each record to the sink. It keeps the
// worker Build signature.
func traceHopBolts(int64) (map[string]engine.BoltFactory, error) {
	return map[string]engine.BoltFactory{"count": newTraceHop}, nil
}

func newTraceHop(int) engine.Bolt {
	return engine.BoltFunc(func(tu engine.Tuple, emit engine.Emit) error {
		emit(engine.Values{tu.Values[0]})
		return nil
	})
}

// TraceVariant is one run's complete tracing account.
type TraceVariant struct {
	// Mode labels the variant: "local", "remote" or "full".
	Mode string
	// Admitted is the number of workload entries pushed through the gate.
	Admitted int64
	// SampledExpected is |{seq <= Admitted : the deterministic hash wins}|
	// — computed from the sampling function alone, before the run.
	SampledExpected int
	// TracesCompleted counts fully reassembled traces.
	TracesCompleted int
	// SampledIDs is the sorted completed trace-id set (the admit seqs).
	SampledIDs []uint64
	// TelescopeViolations counts traces where queue + service + shuttle
	// != sojourn (must be 0: the segments tile the sojourn exactly).
	TelescopeViolations int
	// SpanViolations counts traces whose folded segment-span count is not
	// the chain's exact expectation (5 local, 6 with a remote hop).
	SpanViolations int
	// TenantViolations counts traces attributed to the wrong tenant.
	TenantViolations int
	// RemoteSegments sums per-trace shuttle-crossing segment counts.
	RemoteSegments int
	// SumSojournNS, SumQueueNS, SumServiceNS and SumShuttleNS aggregate
	// the decomposition over every completed trace.
	SumSojournNS, SumQueueNS, SumServiceNS, SumShuttleNS int64
	// BookedSojournNS is the engine root log's summed sojourn for the
	// whole run (all roots, traced or not), from the node's closing report.
	BookedSojournNS int64
	// SpansDropped is the tracer's ring-overflow count (must be 0).
	SpansDropped uint64
	// Assembly is the assembler's final balance.
	Assembly obs.AssembleStats
}

// TraceResult carries the three-variant arc and its cross-run audit.
type TraceResult struct {
	// Scenario is the (possibly scaled) spec the workload replays.
	Scenario scenario.Spec
	// PerTenant is the offered arrivals per tenant before the bucket.
	PerTenant int
	// Shed counts the token-bucket refusals per tenant (the front-door
	// shed; identical across variants by construction).
	Shed map[string]int64
	// Local and Remote are the sampled runs; Full traces every root.
	Local, Remote, Full TraceVariant
	// SampledSetsIdentical reports the headline determinism property:
	// local and remote completed the exact expected trace-id set.
	SampledSetsIdentical bool
	// TelescopeExact reports zero telescoping violations in any variant.
	TelescopeExact bool
	// OneTracePerRoot reports that every variant completed exactly one
	// trace per sampled root with balanced assembly and zero drops.
	OneTracePerRoot bool
	// BooksReconcile reports the full variant's trace sojourn sum equal,
	// to the nanosecond, to the engine's root-log books.
	BooksReconcile bool
}

// runTraceVariant offers the workload over a node's TCP front door to
// count -> sink on a fixed allocation, with tracing at permille and,
// optionally, the count stage on live worker daemons, and returns the
// full tracing account from the node's closing report and trace hook.
func runTraceVariant(mode string, tenants []string, permille, remoteMachines int, seed int64) (TraceVariant, error) {
	v := TraceVariant{Mode: mode}
	// The expected sampled set is computed from the sampling function
	// alone — a fresh tracer at the same knob must agree seq by seq — and
	// the offers are paced on it.
	ref := obs.NewTracer(obs.TracerConfig{SamplePermille: permille})
	defer ref.Close()
	for seq := uint64(1); seq <= uint64(len(tenants)); seq++ {
		if ref.SampleTrace(seq) {
			v.SampledExpected++
		}
	}
	wantSpans := traceLocalSpans
	if remoteMachines > 0 {
		wantSpans = traceRemoteSpans
	}
	inFlight := make(chan struct{}, traceInFlight)
	cfg := node.Config{
		Build: func(b *engine.TopologyBuilder) {
			b.Bolt("count", 8, newTraceHop).
				Bolt("sink", 2, func(int) engine.Bolt {
					return engine.BoltFunc(func(engine.Tuple, engine.Emit) error { return nil })
				}).
				// Each tenant's records meet one sink task: the second hop
				// routes a remote stage's children by key.
				Fields("count", "sink", func(vs engine.Values) uint64 {
					return uint64(crc32.ChecksumIEEE(vs[0].([]byte)))
				})
		},
		Entry:           "count",
		Tmax:            1,
		Interval:        traceInterval,
		SlotsPerMachine: 2,
		MaxMachines:     4,
		TCPAddr:         "127.0.0.1:0",
		Seed:            seed,
		TraceSample:     permille,
		// The hook runs on the tracer's one drainer goroutine, and Drain
		// returns after it exits: v needs no lock, and until Drain only
		// the hook touches it.
		OnTrace: func(tr obs.Trace) {
			v.TracesCompleted++
			v.SampledIDs = append(v.SampledIDs, tr.ID)
			if tr.QueueNS+tr.ServiceNS+tr.ShuttleNS != tr.SojournNS {
				v.TelescopeViolations++
			}
			if tr.Spans != wantSpans {
				v.SpanViolations++
			}
			if tr.ID >= 1 && tr.ID <= uint64(len(tenants)) && tr.Tenant != tenants[tr.ID-1] {
				v.TenantViolations++
			}
			v.RemoteSegments += tr.Remote
			v.SumSojournNS += tr.SojournNS
			v.SumQueueNS += tr.QueueNS
			v.SumServiceNS += tr.ServiceNS
			v.SumShuttleNS += tr.ShuttleNS
			select {
			case <-inFlight:
			default:
			}
		},
		FixedAlloc: map[string]int{"count": 6, "sink": 2},
	}
	if remoteMachines > 0 {
		// Start returns once MinWorkers workers have joined and the
		// executors are placed on them, so the workers dial alongside it;
		// each runs until the node's shutdown closes its connection.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return v, err
		}
		cfg.WorkerListener, cfg.MinWorkers = l, remoteMachines
		for i := range remoteMachines {
			go func() {
				w, err := worker.Dial(worker.Config{Addr: l.Addr().String(), Name: fmt.Sprintf("trace-w%d", i+1), Build: traceHopBolts})
				if err == nil {
					defer w.Close()
					w.Run()
				}
			}()
		}
	}
	n, err := node.Start(cfg)
	if err != nil {
		return v, err
	}
	defer n.Close()
	// Every count executor is remote before the first offer, so every
	// trace has the remote span count.
	if got, want := n.Status().Remote["count"], cfg.SlotsPerMachine*remoteMachines; got != want {
		return TraceVariant{}, fmt.Errorf("experiments: trace placed %d count executors on %d workers at Start, want %d", got, remoteMachines, want)
	}

	// Offer the workload in order, one record at a time: the only refusal
	// is ring backpressure, retried after its hint, so the admit seq of
	// tenants[i] is exactly i+1 — the sampled set is decided before the
	// run ever starts.
	if err := offerTrace(n.Status().TCPAddr, tenants, ref, inFlight); err != nil {
		return TraceVariant{}, err
	}
	v.Admitted = int64(len(tenants))
	rep := n.Drain()
	if st := rep.Gate; st.ShedRateLimit != 0 || st.ShedOverload != 0 {
		return v, fmt.Errorf("experiments: trace %s shed %d rate-limited and %d overloaded offers, want backlog-only",
			mode, st.ShedRateLimit, st.ShedOverload)
	}
	if rep.Completions != v.Admitted {
		return v, fmt.Errorf("experiments: trace %s completions %d/%d — tuples lost", mode, rep.Completions, v.Admitted)
	}
	v.BookedSojournNS = int64(rep.Sojourn)
	v.SpansDropped, v.Assembly = rep.TraceDropped, rep.Traces
	slices.Sort(v.SampledIDs)
	return v, nil
}

// offerTrace sends each tenant's records over its own TCP connection, in
// workload order. A sampled offer first takes a slot in inFlight, which
// the trace hook frees when the trace completes.
func offerTrace(addr string, tenants []string, ref *obs.Tracer, inFlight chan struct{}) error {
	conns := make(map[string]*ingest.TCPClient)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i, tenant := range tenants {
		if ref.SampleTrace(uint64(i + 1)) {
			select {
			case inFlight <- struct{}{}:
			case <-time.After(traceWait):
				return fmt.Errorf("experiments: trace offer %d waited %v for a sampled trace to complete", i+1, traceWait)
			}
		}
		c := conns[tenant]
		if c == nil {
			var err error
			if c, err = ingest.DialTCP(addr, tenant); err != nil {
				return err
			}
			conns[tenant] = c
		}
		ok, retry, err := c.Send([]byte(tenant))
		for ; err == nil && !ok; ok, retry, err = c.Send([]byte(tenant)) {
			time.Sleep(retry)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// variantBalanced reports the one-trace-per-sampled-root contract for one
// variant: completions match the precomputed expected set size, assembly
// started == completed with nothing pending or lost, and no span was
// dropped on the way in.
func variantBalanced(v TraceVariant) bool {
	return v.TracesCompleted == v.SampledExpected &&
		v.Assembly.Started == uint64(v.SampledExpected) &&
		v.Assembly.Completed == uint64(v.SampledExpected) &&
		v.Assembly.Pending == 0 && v.Assembly.Lost == 0 &&
		v.SpansDropped == 0 &&
		v.TenantViolations == 0
}

// RunTrace replays the canonical chaos scenario's workload with tracing
// on: the arc the trace golden test locks.
func RunTrace(o Options) (TraceResult, error) {
	return RunTraceSpec(scenario.Chaos(), o)
}

// RunTraceSpec runs the trace reconciliation arc over an arbitrary
// scenario spec. A positive Options.Duration scales both the spec and the
// per-tenant workload size.
func RunTraceSpec(spec scenario.Spec, o Options) (TraceResult, error) {
	f := o.scale(spec.DurationSeconds)
	spec = spec.Scaled(f)
	perTenant := max(200, int(tracePerTenant*f))
	res := TraceResult{Scenario: spec, PerTenant: perTenant}
	tenants, shed, err := traceWorkload(spec, perTenant)
	if err != nil {
		return res, err
	}
	res.Shed = shed
	if res.Local, err = runTraceVariant("local", tenants, traceSamplePermille, 0, int64(spec.Seed)); err != nil {
		return res, err
	}
	if res.Remote, err = runTraceVariant("remote", tenants, traceSamplePermille, traceRemoteMachines, int64(spec.Seed)); err != nil {
		return res, err
	}
	if res.Full, err = runTraceVariant("full", tenants, 1000, 0, int64(spec.Seed)); err != nil {
		return res, err
	}
	res.SampledSetsIdentical = slices.Equal(res.Local.SampledIDs, res.Remote.SampledIDs) &&
		len(res.Local.SampledIDs) == res.Local.SampledExpected
	res.TelescopeExact = res.Local.TelescopeViolations == 0 &&
		res.Remote.TelescopeViolations == 0 && res.Full.TelescopeViolations == 0
	res.OneTracePerRoot = variantBalanced(res.Local) && variantBalanced(res.Remote) && variantBalanced(res.Full)
	res.BooksReconcile = res.Full.SumSojournNS == res.Full.BookedSojournNS &&
		res.Full.SumSojournNS > 0
	return res, nil
}

// Print renders the arc: per-variant trace counts, the measured sojourn
// decomposition, and the cross-run audit. Segment magnitudes are real
// wall-clock measurements and vary run to run; the counts and the audit
// verdicts are deterministic.
func (r TraceResult) Print(w io.Writer) {
	header(w, fmt.Sprintf("Trace: scenario %q, %d/tenant offered, %d admitted; sampling %d permille (full run: 1000)",
		r.Scenario.Name, r.PerTenant, r.Local.Admitted, traceSamplePermille))
	for _, ts := range r.Scenario.Tenants {
		if n, ok := r.Shed[ts.Name]; ok {
			fmt.Fprintf(w, "  shed at the bucket: %s %d\n", ts.Name, n)
		}
	}
	fmt.Fprintf(w, "%-7s %9s %8s %7s %6s %11s %11s %11s %11s\n",
		"variant", "admitted", "sampled", "traces", "remote", "queue ms", "service ms", "shuttle ms", "sojourn ms")
	row := func(v TraceVariant) {
		fmt.Fprintf(w, "%-7s %9d %8d %7d %6d %11.2f %11.2f %11.2f %11.2f\n",
			v.Mode, v.Admitted, v.SampledExpected, v.TracesCompleted, v.RemoteSegments,
			float64(v.SumQueueNS)/1e6, float64(v.SumServiceNS)/1e6,
			float64(v.SumShuttleNS)/1e6, float64(v.SumSojournNS)/1e6)
	}
	row(r.Local)
	row(r.Remote)
	row(r.Full)
	fmt.Fprintf(w, "sampled sets bit-identical (local == remote == expected): %v\n", r.SampledSetsIdentical)
	fmt.Fprintf(w, "every trace telescopes exactly (queue+service+shuttle == sojourn): %v\n", r.TelescopeExact)
	fmt.Fprintf(w, "one complete trace per sampled root, nothing dropped/lost/pending: %v\n", r.OneTracePerRoot)
	fmt.Fprintf(w, "full-sampling trace sojourn sum == engine books: %v (%d ns vs %d ns)\n",
		r.BooksReconcile, r.Full.SumSojournNS, r.Full.BookedSojournNS)
}
