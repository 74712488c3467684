package experiments

import (
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/ingest"
	"github.com/drs-repro/drs/internal/obs"
	"github.com/drs-repro/drs/internal/scenario"
	"github.com/drs-repro/drs/internal/sim"
	"github.com/drs-repro/drs/internal/worker"
)

// The trace experiment: the per-tuple tracing tentpole's golden arc. It
// replays the chaos scenario's workload — per-tenant recorded arrival
// traces, token-bucket admission so the surges genuinely shed — through
// the REAL data plane three times: once all-local at a production
// sampling rate, once with the stateful stage spread over three live
// worker daemons on loopback TCP at the same rate, and once all-local
// with every root sampled. The audit the test locks:
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
	// traceRemoteMachines spreads the count stage over this many workers.
	traceRemoteMachines = 3
	// traceLocalSpans / traceRemoteSpans are the exact per-trace segment
	// span counts on the src -> count -> sink chain: gate + two hops of
	// (queue, service), the remote hop adding one shuttle segment.
	traceLocalSpans  = 5
	traceRemoteSpans = 6
)

// traceEntry is one admitted tuple of the deterministic workload.
type traceEntry struct {
	tenant string
	key    int
}

// traceWorkload derives the deterministic workload from the seeded spec
// exactly like the worker equivalence harness: recorded arrival traces,
// token-bucket admission at 60% of the mean rate, seeded keys. The
// admitted entries ARE the offer sequence, so the gate's admit seq space
// — and with it the sampled set — is identical across variants.
func traceWorkload(spec scenario.Spec, perTenant int) (entries []traceEntry, shed map[string]int64, err error) {
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
		trace, err := sim.RecordArrivals(proc, perTenant, uint64(spec.Seed)+uint64(ti)*101)
		if err != nil {
			return nil, nil, err
		}
		keys := uint64(spec.Seed)*7919 + uint64(ti)
		rate := trace.MeanRate() * 0.6
		const burst = 20.0
		tokens := burst
		for i := 0; i < perTenant; i++ {
			gap := trace.NextInterArrival(nil)
			tokens += gap * rate
			if tokens > burst {
				tokens = burst
			}
			keys += 0x9e3779b97f4a7c15
			z := keys
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9fe
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			key := int((z ^ (z >> 31)) % 128)
			if tokens >= 1 {
				tokens--
				entries = append(entries, traceEntry{tenant: ts.Name, key: key})
			} else {
				shed[ts.Name]++
			}
		}
	}
	return entries, shed, nil
}

// traceCountBolts builds the stateful count stage both the serve process
// and the worker daemons host: per-task running counts keyed by
// (tenant, key). The factory ignores the seed — the state machine is
// deterministic — but keeps the worker Build signature.
func traceCountBolts(int64) (map[string]engine.BoltFactory, error) {
	return map[string]engine.BoltFactory{"count": newTraceCountBolt}, nil
}

func newTraceCountBolt(int) engine.Bolt {
	counts := make(map[string]int)
	return engine.BoltFunc(func(tu engine.Tuple, emit engine.Emit) error {
		tenant := tu.Values[0].(string)
		key := tu.Values[1].(int)
		ck := fmt.Sprintf("%s/%d", tenant, key)
		counts[ck]++
		emit(engine.Values{tenant, key, counts[ck]})
		return nil
	})
}

// TraceVariant is one run's complete tracing account.
type TraceVariant struct {
	// Mode labels the variant: "local", "remote" or "full".
	Mode string
	// SamplePermille is the variant's sampling rate.
	SamplePermille int
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
	// whole run (all roots, traced or not), read before Stop.
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

// runTraceVariant pushes the workload through src -> count(fields by key)
// -> sink with tracing at permille, optionally spreading the count stage
// over live worker daemons, and returns the full tracing account.
func runTraceVariant(mode string, entries []traceEntry, permille, remoteMachines int, seed int64) (TraceVariant, error) {
	v := TraceVariant{Mode: mode, SamplePermille: permille}
	var (
		mu        sync.Mutex
		completed []obs.Trace
	)
	asm := obs.NewAssembler(obs.AssemblerConfig{
		OnComplete: func(tr obs.Trace) {
			mu.Lock()
			completed = append(completed, tr)
			mu.Unlock()
		},
	})
	tracer := obs.NewTracer(obs.TracerConfig{
		Shards: 4, ShardCapacity: 1 << 16,
		SamplePermille: permille,
		Assembler:      asm,
		FlushEvery:     time.Millisecond,
	})
	gate := ingest.NewGate(ingest.GateConfig{RingCapacity: 1 << 12, Tracer: tracer})
	topo, err := engine.NewTopology().
		Spout("src", 1, func(int) engine.Spout {
			return &engine.NetworkSpout{Source: gate.Ring(), MaxBatch: 64}
		}).
		Bolt("count", 8, newTraceCountBolt).
		Bolt("sink", 2, func(int) engine.Bolt {
			return engine.BoltFunc(func(engine.Tuple, engine.Emit) error { return nil })
		}).
		Fields("src", "count", func(vs engine.Values) uint64 { return uint64(vs[1].(int)) }).
		Shuffle("count", "sink").
		Build()
	if err != nil {
		return v, err
	}
	run, err := topo.Start(engine.RunConfig{
		Alloc:          map[string]int{"count": 6, "sink": 2},
		QuiesceTimeout: 10 * time.Second,
		Tracer:         tracer,
	})
	if err != nil {
		return v, err
	}
	defer run.Stop()

	if remoteMachines > 0 {
		next := 1 // machine 0 is the serve process
		var bindMu sync.Mutex
		co := worker.NewCoordinator(worker.CoordinatorConfig{
			Seed: seed,
			Bind: func(string, int) (int, error) {
				bindMu.Lock()
				defer bindMu.Unlock()
				id := next
				next++
				return id, nil
			},
		})
		defer co.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return v, err
		}
		defer ln.Close()
		go co.Serve(ln)
		placement := make(map[int]int, remoteMachines)
		for i := 0; i < remoteMachines; i++ {
			w, err := worker.Dial(worker.Config{
				Addr:  ln.Addr().String(),
				Name:  fmt.Sprintf("trace-w%d", i+1),
				Build: traceCountBolts,
			})
			if err != nil {
				return v, err
			}
			go w.Run()
			defer w.Close()
			placement[w.Machine()] = 2
		}
		if err := co.WaitWorkers(remoteMachines, 5*time.Second); err != nil {
			return v, err
		}
		plan := worker.ApplyPlacement(run, run.Allocation(), placement, 0, co.Remote)
		if plan.Errors != 0 {
			return v, fmt.Errorf("experiments: trace placement errors: %+v", plan)
		}
		if got, _ := run.RemoteBound("count"); got != 6 {
			return v, fmt.Errorf("experiments: count RemoteBound = %d, want 6", got)
		}
	}

	// Offer the workload in order: the only possible refusal is ring
	// backpressure, so the admit seq of entries[i] is exactly i+1 — the
	// sampled set is decided before the run ever starts.
	clients := make(map[string]*ingest.Client)
	for _, e := range entries {
		c := clients[e.tenant]
		if c == nil {
			c = gate.Client(e.tenant, 1, 0, 0)
			clients[e.tenant] = c
		}
		for {
			verdict := c.Offer(engine.Values{e.tenant, e.key})
			if verdict.Admitted {
				break
			}
			if verdict.Reason != ingest.ShedBacklog {
				return v, fmt.Errorf("experiments: trace offer shed for %v, want backlog-only", verdict.Reason)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	v.Admitted = int64(len(entries))

	want := int64(len(entries))
	deadline := time.Now().Add(30 * time.Second)
	for {
		count, _ := run.Completions()
		if count >= want {
			break
		}
		if time.Now().After(deadline) {
			return v, fmt.Errorf("experiments: trace %s completions %d/%d — tuples lost", mode, count, want)
		}
		time.Sleep(time.Millisecond)
	}
	_, _, v.BookedSojournNS = run.RootTotals()
	gate.Close()
	if err := run.Stop(); err != nil {
		return v, err
	}
	if err := tracer.Close(); err != nil {
		return v, err
	}
	v.SpansDropped = tracer.Stats().Dropped
	v.Assembly = asm.Stats()

	// The expected sampled set is computed from the sampling function
	// alone — a fresh tracer at the same knob must agree seq by seq.
	ref := obs.NewTracer(obs.TracerConfig{SamplePermille: permille})
	defer ref.Close()
	for seq := uint64(1); seq <= uint64(len(entries)); seq++ {
		if ref.SampleTrace(seq) {
			v.SampledExpected++
		}
	}

	mu.Lock()
	defer mu.Unlock()
	v.TracesCompleted = len(completed)
	wantSpans := traceLocalSpans
	if remoteMachines > 0 {
		wantSpans = traceRemoteSpans
	}
	for _, tr := range completed {
		v.SampledIDs = append(v.SampledIDs, tr.ID)
		if tr.QueueNS+tr.ServiceNS+tr.ShuttleNS != tr.SojournNS {
			v.TelescopeViolations++
		}
		if tr.Spans != wantSpans {
			v.SpanViolations++
		}
		if tr.ID >= 1 && tr.ID <= uint64(len(entries)) && tr.Tenant != entries[tr.ID-1].tenant {
			v.TenantViolations++
		}
		v.RemoteSegments += tr.Remote
		v.SumSojournNS += tr.SojournNS
		v.SumQueueNS += tr.QueueNS
		v.SumServiceNS += tr.ServiceNS
		v.SumShuttleNS += tr.ShuttleNS
	}
	slices.Sort(v.SampledIDs)
	return v, nil
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
	entries, shed, err := traceWorkload(spec, perTenant)
	if err != nil {
		return res, err
	}
	res.Shed = shed
	if res.Local, err = runTraceVariant("local", entries, traceSamplePermille, 0, int64(spec.Seed)); err != nil {
		return res, err
	}
	if res.Remote, err = runTraceVariant("remote", entries, traceSamplePermille, traceRemoteMachines, int64(spec.Seed)); err != nil {
		return res, err
	}
	if res.Full, err = runTraceVariant("full", entries, 1000, 0, int64(spec.Seed)); err != nil {
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
	for tenant, n := range r.Shed {
		fmt.Fprintf(w, "  shed at the bucket: %s %d\n", tenant, n)
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
