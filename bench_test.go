// Repository benchmarks: one benchmark per table/figure of the paper's
// evaluation (each iteration regenerates a scaled-down version of the
// experiment; run cmd/drs-experiments for the paper-faithful durations),
// plus the ablation benchmarks called out in DESIGN.md and micro-benchmarks
// of the hot paths.
package drs_test

import (
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/apps/fpd"
	"github.com/drs-repro/drs/internal/apps/vld"
	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/experiments"
	"github.com/drs-repro/drs/internal/ingest"
	"github.com/drs-repro/drs/internal/loop"
	"github.com/drs-repro/drs/internal/metrics"
	"github.com/drs-repro/drs/internal/obs"
	"github.com/drs-repro/drs/internal/queueing"
	"github.com/drs-repro/drs/internal/sim"
	"github.com/drs-repro/drs/internal/stats"
	"github.com/drs-repro/drs/internal/topology"
	"github.com/drs-repro/drs/internal/wal"
)

// benchOpts shrinks experiment durations so one benchmark iteration stays
// in the hundreds of milliseconds: a positive Duration scales a figure's
// whole paper timeline (warm-up, enable point) to that horizon.
var benchOpts = experiments.Options{Duration: 120, Seed: 1}

func BenchmarkFig6VLD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFigure6(experiments.VLD, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) != 6 {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkFig6FPD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFigure6(experiments.FPD, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) != 6 {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkFig7VLD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure7(experiments.VLD, benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7FPD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure7(experiments.FPD, benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFigure8(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) != 6 {
			b.Fatal("missing points")
		}
	}
}

func BenchmarkFig9VLD(b *testing.B) {
	opts := experiments.Options{Duration: 360, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure9(experiments.VLD, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9FPD(b *testing.B) {
	opts := experiments.Options{Duration: 360, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure9(experiments.FPD, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10ExpA(b *testing.B) {
	opts := experiments.Options{Duration: 360, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure10(experiments.ExpA, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10ExpB(b *testing.B) {
	opts := experiments.Options{Duration: 360, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure10(experiments.ExpB, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Scheduling is Table II's "Scheduling" row measured the
// canonical Go way: ns/op of one full Algorithm 1 run per Kmax — the body
// `drs-experiments table2` times.
func BenchmarkTable2Scheduling(b *testing.B) {
	for _, kmax := range experiments.Table2Kmaxes() {
		step, err := experiments.Table2Scheduling(kmax)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kmaxName(kmax), func(b *testing.B) { benchStep(b, step) })
	}
}

// BenchmarkTable2Measurement is Table II's "Measurement" row: processing
// one measurement interval (aggregate, window, snapshot).
func BenchmarkTable2Measurement(b *testing.B) {
	step, err := experiments.Table2Measurement()
	if err != nil {
		b.Fatal(err)
	}
	benchStep(b, step)
}

// benchStep runs one Table II body b.N times.
func benchStep(b *testing.B, step func() error) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §6) ---

// BenchmarkAblationGreedyVsBrute compares Algorithm 1 against exhaustive
// enumeration on an instance small enough for both (the exactness itself is
// asserted in core's tests; this shows the cost gap).
func BenchmarkAblationGreedyVsBrute(b *testing.B) {
	model, err := core.NewModel(5, []core.OpRates{
		{Name: "a", Lambda: 5, Mu: 2},
		{Name: "b", Lambda: 10, Mu: 4},
		{Name: "c", Lambda: 3, Mu: 10},
	})
	if err != nil {
		b.Fatal(err)
	}
	const kmax = 24
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := model.AssignProcessors(kmax); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.BruteForceAssign(model, kmax); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationHeapVsScan compares the heap-based greedy against the
// paper's literal rescan formulation on a wide topology.
func BenchmarkAblationHeapVsScan(b *testing.B) {
	rng := stats.NewRNG(99)
	const n = 64
	ops := make([]core.OpRates, n)
	for i := range ops {
		ops[i] = core.OpRates{Lambda: rng.Uniform(10, 210), Mu: rng.Uniform(5, 45)}
	}
	model, err := core.NewModel(50, ops)
	if err != nil {
		b.Fatal(err)
	}
	_, minTotal, err := model.MinAllocation()
	if err != nil {
		b.Fatal(err)
	}
	kmax := minTotal + 256
	b.Run("heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := model.AssignProcessors(kmax); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.AssignProcessorsScan(model, kmax); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationModel compares the Erlang M/M/k evaluation against the
// naive "one fast server" (M/M/1 with rate kµ) evaluation; the quality gap
// is asserted in core's ablation test, this is the cost side.
func BenchmarkAblationModel(b *testing.B) {
	model, err := fpd.Model()
	if err != nil {
		b.Fatal(err)
	}
	alloc := fpd.RecommendedAllocation()
	b.Run("erlang-mmk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := model.ExpectedSojourn(alloc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-mm1", func(b *testing.B) {
		rates := model.Rates()
		for i := 0; i < b.N; i++ {
			total := 0.0
			for j, op := range rates {
				total += op.Lambda / (float64(alloc[j])*op.Mu - op.Lambda)
			}
			_ = total / model.Lambda0()
		}
	})
}

// --- Micro-benchmarks of the hot paths ---

func BenchmarkErlangC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = queueing.ErlangC(22, 18.5)
	}
}

func BenchmarkExpectedSojourn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = queueing.ExpectedSojourn(1347, 132, 13)
	}
}

func BenchmarkTrafficEquations(b *testing.B) {
	topo, err := topology.NewBuilder().
		AddOperator("A", 50, 10).
		AddOperator("B", 40, 0).
		AddOperator("C", 60, 0).
		AddOperator("D", 45, 4).
		AddOperator("E", 55, 0).
		Connect("A", "B", 0.6).
		Connect("A", "C", 0.4).
		Connect("C", "E", 1).
		Connect("D", "E", 1).
		Connect("E", "A", 0.5).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topo.ArrivalRates(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimThroughput measures discrete-event simulation speed in
// simulated tuple-completions per benchmark op (1000 simulated seconds of
// the VLD pipeline).
func BenchmarkSimThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, err := vld.SimConfig(vld.RecommendedAllocation(), uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s.RunUntil(1000)
		if s.CompletedStats().Count() == 0 {
			b.Fatal("no completions")
		}
	}
}

// gateSpout emits its share of a fixed tuple budget as fast as possible
// once released, then idles until stopped. Instance i of k emits
// total/k (+1 for the first total%k instances), so the instances together
// emit exactly total tuples.
type gateSpout struct {
	total     int
	instances int
	instance  int
	batch     int // >0: emit via EmitBatch in chunks of this size
	gate      <-chan struct{}
}

func (s *gateSpout) Run(ctx engine.SpoutContext) error {
	select {
	case <-s.gate:
	case <-ctx.Done():
		return nil
	}
	n := s.total / s.instances
	if s.instance < s.total%s.instances {
		n++
	}
	payload := engine.Values{1}
	if s.batch > 0 {
		// Source micro-batching path: hand the engine chunks of tuples.
		chunk := make([]engine.Values, s.batch)
		for i := range chunk {
			chunk[i] = payload
		}
		for n > 0 {
			select {
			case <-ctx.Done():
				return nil
			default:
			}
			k := s.batch
			if k > n {
				k = n
			}
			ctx.EmitBatch(chunk[:k])
			n -= k
		}
		<-ctx.Done()
		return nil
	}
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			return nil
		default:
		}
		ctx.Emit(payload)
	}
	<-ctx.Done()
	return nil
}

// runEngineThroughput starts the topology, releases the spouts, and times
// the drain of exactly b.N external tuples: ns/op is the per-external-tuple
// cost of the full data plane (emit, route, enqueue, process, ack).
func runEngineThroughput(b *testing.B, topo *engine.Topology, cfg engine.RunConfig, gate chan struct{}) {
	b.Helper()
	run, err := topo.Start(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer run.Stop()
	b.ResetTimer()
	close(gate)
	deadline := time.Now().Add(2 * time.Minute)
	for {
		n, _ := run.Completions()
		if n >= int64(b.N) {
			break
		}
		if time.Now().After(deadline) {
			b.Fatalf("stalled: %d of %d tuples completed", n, b.N)
		}
		time.Sleep(20 * time.Microsecond) // benchmark's timed loop: a spin would take the engine's CPU
	}
	b.StopTimer()
}

// BenchmarkEngineThroughput measures the live engine's data-plane rate on
// two shapes: a minimal spout->bolt pipe (queue + ack overhead dominates)
// and a VLD-shaped 3-stage pipeline with fan-out (routing + tree overhead).
// ns/op is per external tuple.
func BenchmarkEngineThroughput(b *testing.B) {
	noop := func(int) engine.Bolt {
		return engine.BoltFunc(func(engine.Tuple, engine.Emit) error { return nil })
	}
	b.Run("single-bolt", func(b *testing.B) {
		gate := make(chan struct{})
		const spouts = 4
		topo, err := engine.NewTopology().
			Spout("src", spouts, func(i int) engine.Spout {
				return &gateSpout{total: b.N, instances: spouts, instance: i, gate: gate}
			}).
			Bolt("sink", 8, noop).
			Shuffle("src", "sink").
			Build()
		if err != nil {
			b.Fatal(err)
		}
		runEngineThroughput(b, topo, engine.RunConfig{Alloc: map[string]int{"sink": 4}}, gate)
	})
	b.Run("single-bolt-traced", func(b *testing.B) {
		// The tracing-enabled, sampled-out twin: a tracer is wired into the
		// run but every root's trace id is zero, so the hot loop pays only
		// the per-tuple `tree.trace != 0` check. EXPERIMENTS.md's cost-of-
		// being-traced table pairs this with the bare single-bolt number;
		// the data plane must stay allocation-free per external tuple.
		tracer := obs.NewTracer(obs.TracerConfig{Shards: 4, ShardCapacity: 1 << 12})
		defer tracer.Close()
		gate := make(chan struct{})
		const spouts = 4
		topo, err := engine.NewTopology().
			Spout("src", spouts, func(i int) engine.Spout {
				return &gateSpout{total: b.N, instances: spouts, instance: i, gate: gate}
			}).
			Bolt("sink", 8, noop).
			Shuffle("src", "sink").
			Build()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		runEngineThroughput(b, topo,
			engine.RunConfig{Alloc: map[string]int{"sink": 4}, Tracer: tracer}, gate)
		if st := tracer.Stats(); st.Spans != 0 {
			b.Fatalf("sampled-out run emitted %d spans", st.Spans)
		}
	})
	b.Run("single-bolt-batch", func(b *testing.B) {
		gate := make(chan struct{})
		const spouts = 4
		topo, err := engine.NewTopology().
			Spout("src", spouts, func(i int) engine.Spout {
				return &gateSpout{total: b.N, instances: spouts, instance: i, batch: 64, gate: gate}
			}).
			Bolt("sink", 8, noop).
			Shuffle("src", "sink").
			Build()
		if err != nil {
			b.Fatal(err)
		}
		runEngineThroughput(b, topo, engine.RunConfig{Alloc: map[string]int{"sink": 4}}, gate)
	})
	b.Run("vld", func(b *testing.B) {
		gate := make(chan struct{})
		const spouts = 2
		fan := func(int) engine.Bolt {
			return engine.BoltFunc(func(t engine.Tuple, emit engine.Emit) error {
				emit(t.Values)
				emit(t.Values)
				return nil
			})
		}
		fwd := func(int) engine.Bolt {
			return engine.BoltFunc(func(t engine.Tuple, emit engine.Emit) error {
				emit(t.Values)
				return nil
			})
		}
		topo, err := engine.NewTopology().
			Spout("src", spouts, func(i int) engine.Spout {
				return &gateSpout{total: b.N, instances: spouts, instance: i, gate: gate}
			}).
			Bolt("extract", 16, fan).
			Bolt("match", 16, fwd).
			Bolt("aggregate", 4, noop).
			Shuffle("src", "extract").
			Shuffle("extract", "match").
			Fields("match", "aggregate", func(v engine.Values) uint64 { return uint64(v[0].(int)) }).
			Build()
		if err != nil {
			b.Fatal(err)
		}
		runEngineThroughput(b, topo,
			engine.RunConfig{Alloc: map[string]int{"extract": 10, "match": 11, "aggregate": 1}}, gate)
	})
}

// poissonSpout emits single tuples at exponential gaps of the given mean,
// seeded. Arrival instants are laid out ahead on the wall clock and every
// tuple due by the time the spout wakes is emitted, so a late wake-up
// delays tuples but never thins the stream.
type poissonSpout struct {
	meanGap time.Duration
	seed    uint64
}

func (s *poissonSpout) Run(ctx engine.SpoutContext) error {
	rng := stats.NewRNG(s.seed)
	payload := engine.Values{1}
	due := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-timer.C:
		}
		now := time.Now()
		for !due.After(now) {
			ctx.Emit(payload)
			due = due.Add(time.Duration(rng.Exp(1) * float64(s.meanGap)))
		}
		timer.Reset(due.Sub(now))
	}
}

// BenchmarkEngineStation measures how close a shuffle-grouped bolt on k
// executors comes to the M/M/k station the DRS model takes it for
// (ROADMAP item 1's acceptance probe): Poisson arrivals into one bolt
// whose tasks sleep a seeded exponential 4 ms, offered at rho = 0.8, six
// seconds a pass. A sleep overshoots — 4 ms drawn is about 4.6 ms slept —
// so the offered rate is sized on a calibration of what the sleeps take,
// and the reported sojourn/mmk is the measured mean sojourn over
// queueing.ExpectedSojourn evaluated on the *measured* arrival and service
// rates of the pass. 1.0 is the model's station; what the ratio exceeds it
// by is queueing the model does not see (below 1.0: the overshoot makes
// the service less variable than exponential). ns/op is the pass length
// and means nothing; -v logs the rates behind each ratio.
func BenchmarkEngineStation(b *testing.B) {
	const (
		service = 4 * time.Millisecond
		rho     = 0.8
		pass    = 6 * time.Second
	)
	// What a drawn service actually takes on this box.
	rng := stats.NewRNG(1)
	start := time.Now()
	const draws = 250
	for i := 0; i < draws; i++ {
		time.Sleep(time.Duration(rng.Exp(1) * float64(service))) // workload: the drawn service being calibrated
	}
	slept := time.Since(start) / draws
	for _, k := range []int{2, 4, 8} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				seed := uint64(i + 1)
				topo, err := engine.NewTopology().
					Spout("src", 1, func(int) engine.Spout {
						return &poissonSpout{meanGap: time.Duration(float64(slept) / (rho * float64(k))), seed: seed}
					}).
					Bolt("station", 4*k, func(task int) engine.Bolt {
						rng := stats.NewRNG(seed<<16 | uint64(task+1))
						return engine.BoltFunc(func(engine.Tuple, engine.Emit) error {
							time.Sleep(time.Duration(rng.Exp(1) * float64(service))) // workload: modelled service
							return nil
						})
					}).
					Shuffle("src", "station").
					Build()
				if err != nil {
					b.Fatal(err)
				}
				run, err := topo.Start(engine.RunConfig{Alloc: map[string]int{"station": k}})
				if err != nil {
					b.Fatal(err)
				}
				time.Sleep(pass) // benchmark's timed window
				rep := run.DrainInterval()
				if err := run.Stop(); err != nil {
					b.Fatal(err)
				}
				op := rep.Ops[0]
				if rep.SojournCount == 0 || op.Sampled == 0 {
					b.Fatal("nothing completed")
				}
				lambda := float64(rep.ExternalArrivals) / rep.Duration.Seconds()
				mu := float64(op.Sampled) / op.BusyTime.Seconds()
				measured := rep.SojournTotal.Seconds() / float64(rep.SojournCount)
				model := queueing.ExpectedSojourn(lambda, mu, k)
				ratio += measured / model
				b.Logf("lambda %.0f/s, mu %.0f/s, rho %.2f: sojourn %.2f ms, M/M/%d %.2f ms", lambda, mu,
					lambda/(mu*float64(k)), measured*1e3, k, model*1e3)
			}
			b.ReportMetric(ratio/float64(b.N), "sojourn/mmk")
		})
	}
}

func kmaxName(k int) string {
	const digits = "0123456789"
	if k == 0 {
		return "Kmax=0"
	}
	var buf [8]byte
	i := len(buf)
	for k > 0 {
		i--
		buf[i] = digits[k%10]
		k /= 10
	}
	return "Kmax=" + string(buf[i:])
}

// BenchmarkAblationBaseline compares full DRS-vs-threshold comparison runs
// (scaled down) — the cost of the policy study itself.
func BenchmarkAblationBaseline(b *testing.B) {
	opts := experiments.Options{Duration: 240, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBaseline(experiments.VLD, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTarget is a steady-state supervisor target: a fixed interval report
// and an allocation that accepts whatever the loop applies.
type benchTarget struct {
	alloc map[string]int
	rep   metrics.IntervalReport
}

func (t *benchTarget) DrainInterval() metrics.IntervalReport { return t.rep }
func (t *benchTarget) Allocation() map[string]int            { return t.alloc }
func (t *benchTarget) Rebalance(alloc map[string]int, _ time.Duration) error {
	for k, v := range alloc {
		t.alloc[k] = v
	}
	return nil
}

// BenchmarkSupervisorTick measures one full control round of the closed
// loop (DESIGN.md §6): measurer ingest, snapshot, model build, Algorithm 1
// solve, and the hold/apply verdict — the per-Tm cost a live deployment
// pays.
func BenchmarkSupervisorTick(b *testing.B) {
	names := []string{"extract", "match", "aggregate"}
	target := &benchTarget{
		alloc: map[string]int{"extract": 10, "match": 11, "aggregate": 1},
		rep: metrics.IntervalReport{
			Duration:         10 * time.Second,
			ExternalArrivals: 130,
			Ops: []metrics.OpInterval{
				{Arrivals: 130, Served: 130, Sampled: 130, BusyTime: time.Duration(130 * 0.45 * float64(time.Second))},
				{Arrivals: 130, Served: 130, Sampled: 130, BusyTime: time.Duration(130 * 0.50 * float64(time.Second))},
				{Arrivals: 130, Served: 130, Sampled: 130, BusyTime: time.Duration(130 * 0.01 * float64(time.Second))},
			},
			SojournCount: 120,
			SojournTotal: 120 * time.Second,
		},
	}
	ctrl, err := core.NewController(core.ControllerConfig{Mode: core.ModeMinLatency, Kmax: 22, MinGain: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	sup, err := loop.New(loop.Config{
		Target:    target,
		Operators: names,
		Stepper:   ctrl,
		Pool:      loop.FixedPool(22),
		Interval:  10 * time.Second,
		Cooldown:  time.Nanosecond, // decide every round: measure the full path
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sup.Tick()
	}
}

// BenchmarkSchedulerArbitration measures one multi-tenant arbitration: an
// 8-tenant contended Resize that re-runs the floors + weighted max-min
// water-fill + preemption overlay over a 64-slot pool — the per-request
// cost of the cluster scheduler's decision path.
func BenchmarkSchedulerArbitration(b *testing.B) {
	pool, err := cluster.NewPool(cluster.PoolConfig{SlotsPerMachine: 8, MaxMachines: 8}, 1)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := cluster.NewScheduler(cluster.SchedulerConfig{Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	tenants := make([]*cluster.Tenant, 8)
	for i := range tenants {
		t, err := sched.Register(cluster.TenantConfig{
			Name:     string(rune('a' + i)),
			Weight:   float64(i%3 + 1),
			Priority: i % 2,
			MinSlots: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		t.Report(cluster.TenantReport{
			Lambda0:     10,
			Violating:   i%2 == 1,
			GrowBenefit: float64(i),
			ShrinkCost:  0.5,
		})
		tenants[i] = t
	}
	// Oversubscribe: total demand 8×12 = 96 over 64 slots, so every
	// arbitration exercises the contended path end to end.
	for _, t := range tenants {
		if _, err := t.Resize(12); err != nil && !errors.Is(err, cluster.ErrNoCapacity) {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tenants[i%len(tenants)].Resize(12 + i%2); err != nil && !errors.Is(err, cluster.ErrNoCapacity) {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerFailover measures arbitration latency on a degraded
// pool: the same 8-tenant contended Resize as BenchmarkSchedulerArbitration
// but with one machine down — the failure-domain hot path (floors clipped
// by the lost capacity, water-fill over the survivors, placement rebuilt
// around the dead machine) that every post-crash re-arbitration runs.
func BenchmarkSchedulerFailover(b *testing.B) {
	pool, err := cluster.NewPool(cluster.PoolConfig{SlotsPerMachine: 8, MaxMachines: 8}, 1)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := cluster.NewScheduler(cluster.SchedulerConfig{Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	tenants := make([]*cluster.Tenant, 8)
	for i := range tenants {
		t, err := sched.Register(cluster.TenantConfig{
			Name:     string(rune('a' + i)),
			Weight:   float64(i%3 + 1),
			Priority: i % 2,
			MinSlots: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		t.Report(cluster.TenantReport{
			Lambda0:     10,
			Violating:   i%2 == 1,
			GrowBenefit: float64(i),
			ShrinkCost:  0.5,
		})
		tenants[i] = t
	}
	for _, t := range tenants {
		if _, err := t.Resize(12); err != nil && !errors.Is(err, cluster.ErrNoCapacity) {
			b.Fatal(err)
		}
	}
	// Take one machine down: every arbitration below re-runs against the
	// shrunken live capacity (56 slots for 96 demanded).
	live := pool.LiveMachines()
	if err := sched.FailMachine(live[len(live)-1].ID); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tenants[i%len(tenants)].Resize(12 + i%2); err != nil && !errors.Is(err, cluster.ErrNoCapacity) {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngest measures the network front door's hot path. "admit" is
// the decode → admit → ring fast path alone — token-bucket check, cluster
// thinning verdict, bounded-ring push, plus the consumer's batched drain —
// which must stay at 0 allocs/op in steady state. "front-door" runs the
// same records through the full bridge: gate → ring → NetworkSpout →
// EmitBatch → executor, ns/op per admitted tuple.
func BenchmarkIngest(b *testing.B) {
	payload := engine.Values{[]byte("record")}
	b.Run("admit", func(b *testing.B) {
		g := ingest.NewGate(ingest.GateConfig{RingCapacity: 1 << 12})
		c := g.Client("bench", 1, 0, 0)
		done := make(chan struct{})
		buf := make([]engine.Values, 0, 1<<12)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if v := c.Offer(payload); !v.Admitted {
				b.Fatalf("offer %d refused: %+v", i, v)
			}
			if i&(1<<11-1) == 1<<11-1 { // drain half-full, one lock round
				g.Ring().PopBatch(done, buf)
			}
		}
	})
	b.Run("admit-logged", func(b *testing.B) {
		// The same fast path with the decision log enabled: shed plans are
		// emitted at Replan granularity, never per record, so this must
		// match "admit" — the observability-cost table holds the receipt.
		dlog := obs.NewLog(obs.Config{})
		defer dlog.Close()
		g := ingest.NewGate(ingest.GateConfig{RingCapacity: 1 << 12, DecisionLog: dlog})
		c := g.Client("bench", 1, 0, 0)
		done := make(chan struct{})
		buf := make([]engine.Values, 0, 1<<12)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if v := c.Offer(payload); !v.Admitted {
				b.Fatalf("offer %d refused: %+v", i, v)
			}
			if i&(1<<11-1) == 1<<11-1 { // drain half-full, one lock round
				g.Ring().PopBatch(done, buf)
			}
		}
	})
	b.Run("admit-traced", func(b *testing.B) {
		// The same fast path with a tracer wired at a production sampling
		// rate (10‰): every admit pays the deterministic sampling hash, one
		// in a hundred also stamps a gate span. The sampled-out majority
		// reads no clock and allocates nothing, so this must sit within a
		// few ns of the bare "admit" number.
		tracer := obs.NewTracer(obs.TracerConfig{
			Shards: 4, ShardCapacity: 1 << 14, SamplePermille: 10,
			Sink:       discardSink{},
			FlushEvery: 200 * time.Microsecond,
		})
		defer tracer.Close()
		g := ingest.NewGate(ingest.GateConfig{RingCapacity: 1 << 12, Tracer: tracer})
		c := g.Client("bench", 1, 0, 0)
		done := make(chan struct{})
		buf := make([]engine.Values, 0, 1<<12)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if v := c.Offer(payload); !v.Admitted {
				b.Fatalf("offer %d refused: %+v", i, v)
			}
			if i&(1<<11-1) == 1<<11-1 { // drain half-full, one lock round
				g.Ring().PopBatch(done, buf)
			}
		}
		b.StopTimer()
		if st := tracer.Stats(); st.Dropped != 0 {
			b.Fatalf("tracer rings overflowed: %d dropped", st.Dropped)
		}
	})
	b.Run("admit-ratelimited", func(b *testing.B) {
		// The same path with a live token bucket (never empty): adds the
		// clock read and the bucket mutex.
		g := ingest.NewGate(ingest.GateConfig{RingCapacity: 1 << 12})
		c := g.Client("bench", 1, 1e12, 1<<30)
		done := make(chan struct{})
		buf := make([]engine.Values, 0, 1<<12)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if v := c.Offer(payload); !v.Admitted {
				b.Fatalf("offer %d refused: %+v", i, v)
			}
			if i&(1<<11-1) == 1<<11-1 {
				g.Ring().PopBatch(done, buf)
			}
		}
	})
	b.Run("front-door", func(b *testing.B) {
		g := ingest.NewGate(ingest.GateConfig{RingCapacity: 1 << 12})
		c := g.Client("bench", 1, 0, 0)
		topo, err := engine.NewTopology().
			Spout("front", 1, func(int) engine.Spout {
				return &engine.NetworkSpout{Source: g.Ring(), MaxBatch: 256}
			}).
			Bolt("sink", 8, func(int) engine.Bolt {
				return engine.BoltFunc(func(engine.Tuple, engine.Emit) error { return nil })
			}).
			Shuffle("front", "sink").
			Build()
		if err != nil {
			b.Fatal(err)
		}
		run, err := topo.Start(engine.RunConfig{Alloc: map[string]int{"sink": 4}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for {
				if v := c.Offer(payload); v.Admitted {
					break
				}
				// Bounded-ring backpressure: the consumer is behind; yield.
				runtime.Gosched()
			}
		}
		for {
			n, _ := run.Completions()
			if n >= int64(b.N) {
				break
			}
			runtime.Gosched()
		}
		b.StopTimer()
		g.Close()
		if err := run.Stop(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkBucketShard is the millions-of-users ingest profile: ≥1e6
// distinct client token buckets behind the per-core-sharded registry
// (ingest/shard.go). "resolve-cold" is the worst case — uniform lookups
// sprayed across the full id space, every probe a cache miss chain.
// "admit" is the realistic profile and the headline number: Zipf-skewed
// traffic (millions registered, a hot set doing most of the talking)
// through the full request path — resolve id, token-bucket check,
// thinning verdict, ring push — with a drainer keeping the ring open.
// The admit target is ≤150 ns/admit (EXPERIMENTS.md, "Hot-path trajectory").
func BenchmarkBucketShard(b *testing.B) {
	const nClients = 1 << 20 // 1,048,576 distinct buckets
	ids := make([]string, nClients)
	for i := range ids {
		ids[i] = "c" + kmaxName(i)[5:] // cheap unique id, no fmt
	}
	g := ingest.NewGate(ingest.GateConfig{RingCapacity: 1 << 16})
	defer g.Close()
	var wg sync.WaitGroup
	stripes := runtime.GOMAXPROCS(0)
	for s := 0; s < stripes; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < nClients; i += stripes {
				g.Client(ids[i], 1, 0, 0)
			}
		}(s)
	}
	wg.Wait()
	// Pre-drawn Zipf(1.3) indices over the id space — the usual
	// multi-tenant skew: a hot set does most of the talking while the
	// long tail stays registered. The draw itself is off the clock, and
	// cycling a fixed table keeps runs comparable.
	zipfIdx := make([]uint32, 1<<16)
	z := rand.NewZipf(rand.New(rand.NewPCG(7, 7^0x9e3779b97f4a7c15)), 1.3, 1, nClients-1)
	for i := range zipfIdx {
		zipfIdx[i] = uint32(z.Uint64())
	}

	b.Run("resolve-cold", func(b *testing.B) {
		b.ReportAllocs()
		var ctr atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			// Each goroutine walks the id space from its own offset with a
			// large odd stride, so lookups spray across every shard.
			i := ctr.Add(1) * 7919
			for pb.Next() {
				if c := g.Client(ids[i&(nClients-1)], 1, 0, 0); c == nil {
					b.Fail()
				}
				i += 7919
			}
		})
	})

	b.Run("admit", func(b *testing.B) {
		// Inline batched drain (the BenchmarkIngest idiom): the consumer
		// cost is amortized on the clock, and no offer ever meets a full
		// ring, so ns/op is the pure admission path.
		done := make(chan struct{})
		buf := make([]engine.Values, 0, 1<<15)
		payload := engine.Values{1}
		for g.Ring().Len() > 0 { // leftovers from the previous calibration run
			g.Ring().PopBatch(done, buf)
		}
		before := g.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := g.Client(ids[zipfIdx[i&(1<<16-1)]], 1, 0, 0)
			if v := c.Offer(payload); !v.Admitted {
				b.Fatalf("offer %d refused: %+v", i, v)
			}
			if i&(1<<15-1) == 1<<15-1 { // drain half-full, one lock round
				g.Ring().PopBatch(done, buf)
			}
		}
		b.StopTimer()
		st := g.Stats()
		if st.Admitted-before.Admitted < int64(b.N) {
			b.Fatal("admitted count mismatch")
		}
	})
}

// BenchmarkWALAppend measures the durable admission hot path: one
// record's amortized cost through the group-commit WAL at batch 64 —
// framing, CRC-32C, staging and the shared write(2) every admit ACK
// waits behind. ns/op is per record, not per batch.
func BenchmarkWALAppend(b *testing.B) {
	l, _, err := wal.Open(wal.Options{
		Dir:          b.TempDir(),
		SegmentBytes: 1 << 30, // no rotation inside the measurement
		SyncEvery:    10 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	const batch = 64
	payload := []byte("0123456789abcdef0123456789abcdef") // a 32-byte record
	recs := make([][]byte, batch)
	for i := range recs {
		recs[i] = payload
	}
	seq := uint64(0)
	// The append path itself is allocation-free; collect the garbage earlier
	// benchmarks in the same process left behind so their GC debt does not
	// bill the measurement.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		if err := l.AppendBatch(seq+1, recs); err != nil {
			b.Fatal(err)
		}
		seq += batch
	}
}

// BenchmarkDurableReplay is the durable boot as one layer: a 20 000-record
// log of 128-byte records, left unacked as a killed process leaves it, is
// recovered (wal.Open), attached to a gate, and replayed through a 3-bolt
// shuffle chain of 2 executors over 4 tasks each until every record has
// completed. ns/op is one whole boot; open-ns/rec and replay-ns/rec split
// it per record into the recovery scan and the replay's drain through the
// engine, and ns/rec is their sum.
func BenchmarkDurableReplay(b *testing.B) {
	const n, size = 20000, 128
	seeded := b.TempDir()
	l, _, err := wal.Open(wal.Options{Dir: seeded, SyncEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	recs := make([][]byte, 0, 1000)
	for i := 0; i < n; i++ {
		if recs = append(recs, make([]byte, size)); len(recs) == cap(recs) {
			if err := l.AppendBatch(uint64(i+2-len(recs)), recs); err != nil {
				b.Fatal(err)
			}
			recs = recs[:0]
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	segments, err := filepath.Glob(filepath.Join(seeded, "*.wal"))
	if err != nil {
		b.Fatal(err)
	}
	fwd := func(int) engine.Bolt {
		return engine.BoltFunc(func(t engine.Tuple, emit engine.Emit) error {
			emit(t.Values)
			return nil
		})
	}
	var openNS, replayNS time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Each boot gets the unacked log afresh: the last one advanced its
		// copy's watermark past every record.
		dir := b.TempDir()
		for _, seg := range segments {
			data, err := os.ReadFile(seg)
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, filepath.Base(seg)), data, 0o644)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		start := time.Now()
		l, _, err := wal.Open(wal.Options{Dir: dir, SyncEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		opened := time.Now()
		g := ingest.NewGate(ingest.GateConfig{RingCapacity: 1 << 16})
		if err := g.AttachWAL(l); err != nil {
			b.Fatal(err)
		}
		topo, err := engine.NewTopology().
			Spout("ingest", 1, func(int) engine.Spout {
				return &engine.NetworkSpout{Source: g.Source(), MaxBatch: 256}
			}).
			Bolt("parse", 4, fwd).
			Bolt("enrich", 4, fwd).
			Bolt("sink", 4, func(int) engine.Bolt {
				return engine.BoltFunc(func(engine.Tuple, engine.Emit) error { return nil })
			}).
			Shuffle("ingest", "parse").
			Shuffle("parse", "enrich").
			Shuffle("enrich", "sink").
			Build()
		if err != nil {
			b.Fatal(err)
		}
		run, err := topo.Start(engine.RunConfig{Alloc: map[string]int{"parse": 2, "enrich": 2, "sink": 2}})
		if err != nil {
			b.Fatal(err)
		}
		if replayed, err := g.Replay(); err != nil || replayed != n {
			b.Fatalf("replayed %d records (err %v), want %d", replayed, err, n)
		}
		for deadline := time.Now().Add(time.Minute); ; {
			if done, _ := run.Completions(); done == n {
				break
			}
			if time.Now().After(deadline) {
				b.Fatal("replay stalled")
			}
			time.Sleep(20 * time.Microsecond) // benchmark's timed loop: a spin would take the engine's CPU
		}
		openNS += opened.Sub(start)
		replayNS += time.Since(opened)
		b.StopTimer()
		g.Close()
		if err := run.Stop(); err != nil {
			b.Fatal(err)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	records := float64(b.N) * n
	b.ReportMetric(float64(openNS)/records, "open-ns/rec")
	b.ReportMetric(float64(replayNS)/records, "replay-ns/rec")
	b.ReportMetric(float64(openNS+replayNS)/records, "ns/rec")
}

// BenchmarkDecisionLog measures the decision log's emit path — the cost a
// decider pays per record. "emit" is the kept-record path (copy into a
// ring slot under a shard mutex) with the drain amortized on the clock;
// "encode" is the drainer's canonical
// NDJSON encoding of one full preemption record.
func BenchmarkDecisionLog(b *testing.B) {
	rec := obs.Record{
		Kind: obs.KindPreempt, Tenant: "gold", Peer: "bronze",
		From: 7, To: 6, Gain: 0.42, Loss: 0.17, Lambda0: 130, PeerLambda0: 80,
		PauseNS: int64(3 * time.Second), Flag: true, Detail: "floor 4",
	}
	drop := func(*obs.Record) {}
	b.Run("emit", func(b *testing.B) {
		l := obs.NewLog(obs.Config{})
		defer l.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Emit(&rec)
			if i&2047 == 2047 { // drain well before overflow, on the clock
				l.Sweep(drop)
			}
		}
		if st := l.Stats(); st.Dropped != 0 {
			b.Fatalf("ring overflowed: %d dropped", st.Dropped)
		}
	})
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, 512)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = obs.AppendRecord(buf[:0], &rec)
		}
		if len(buf) == 0 {
			b.Fatal("empty encoding")
		}
	})
}

// BenchmarkTraceSpan measures the tracer's per-span hot path — what a
// sampled-in tuple pays at each hop. "emit" is the copy-in of one span
// into a per-shard ring (the drainer drains on its own clock); "sample"
// is the deterministic per-root sampling decision every admit pays,
// sampled-in or not; "encode" is the drainer-side canonical NDJSON
// encoding of one full hop span. The sampled-in stamp budget is ≤~150 ns
// and zero allocations.
// discardSink is a no-op trace sink: it keeps the tracer's drainer running
// (encode + sweep, off the emitters' critical path) without billing disk
// writes to the benchmark.
type discardSink struct{}

func (discardSink) Write([]byte) {}
func (discardSink) Close() error { return nil }

func BenchmarkTraceSpan(b *testing.B) {
	span := obs.SpanRecord{
		Seq: 12345, Trace: 67890, Kind: obs.SpanService,
		Bolt: "match", Tenant: "gold", Task: 7,
		StartNS: 1_723_000_000_000_000_000, DurNS: 184_250,
	}
	b.Run("emit", func(b *testing.B) {
		// A tight single-goroutine loop outruns any drainer by orders of
		// magnitude (no sampled workload stamps spans back to back), so the
		// bench swaps in a fresh tracer before the rings can fill: every
		// measured emit is a successful copy-in, never the cheaper drop.
		newTracer := func() *obs.Tracer {
			return obs.NewTracer(obs.TracerConfig{Shards: 4, ShardCapacity: 1 << 15})
		}
		const window = 100_000 // < 4 shards x 32768 slots: no ring fills
		tracer := newTracer()
		emitted := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if emitted == window {
				b.StopTimer()
				if st := tracer.Stats(); st.Dropped != 0 {
					b.Fatalf("dropped %d spans inside the window", st.Dropped)
				}
				if err := tracer.Close(); err != nil {
					b.Fatal(err)
				}
				tracer = newTracer()
				emitted = 0
				b.StartTimer()
			}
			tracer.EmitSpan(&span)
			emitted++
		}
		b.StopTimer()
		if st := tracer.Stats(); st.Dropped != 0 {
			b.Fatalf("dropped %d spans inside the window", st.Dropped)
		}
		if err := tracer.Close(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("sample", func(b *testing.B) {
		tracer := obs.NewTracer(obs.TracerConfig{SamplePermille: 10})
		defer tracer.Close()
		hits := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if tracer.SampleTrace(uint64(i) + 1) {
				hits++
			}
		}
		b.StopTimer()
		if b.N > 10000 && (hits < b.N/1000 || hits > b.N/10) {
			b.Fatalf("10-permille sampling hit %d of %d", hits, b.N)
		}
	})
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, 256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = obs.AppendSpan(buf[:0], &span)
		}
		if len(buf) == 0 {
			b.Fatal("empty encoding")
		}
	})
}

// BenchmarkMetricsScrape measures one full /metrics exposition render over
// a serve-sized registry: ~30 live-read series (gate, engine, per-bolt,
// WAL, worker, lease families) plus two populated histograms — the cost a
// Prometheus scrape interval charges the daemon.
func BenchmarkMetricsScrape(b *testing.B) {
	reg := obs.NewRegistry()
	var ctr atomic.Int64
	read := func() float64 { return float64(ctr.Load()) }
	families := []string{
		"drs_gate_offered_total", "drs_gate_admitted_total",
		"drs_engine_roots_started_total", "drs_engine_roots_completed_total",
		"drs_engine_sojourn_seconds_total", "drs_engine_executor_failures_total",
		"drs_engine_replayed_total", "drs_loop_rounds_total",
		"drs_wal_tail_seq", "drs_wal_watermark",
		"drs_worker_joins_total", "drs_worker_deaths_total",
		"drs_decision_log_offered_total", "drs_decision_log_dropped_total",
	}
	for _, name := range families {
		reg.Func(name, "bench series", obs.Counter, "", read)
	}
	bolts := []string{"extract", "transform", "match", "rank", "aggregate", "sink"}
	for _, bolt := range bolts {
		reg.Func("drs_engine_bolt_arrivals_total", "bench series", obs.Counter, `bolt="`+bolt+`"`, read)
		reg.Func("drs_engine_bolt_served_total", "bench series", obs.Counter, `bolt="`+bolt+`"`, read)
	}
	reg.Func("drs_gate_shed_total", "bench series", obs.Counter, `reason="rate-limit"`, read)
	reg.Func("drs_gate_shed_total", "bench series", obs.Counter, `reason="overload"`, read)
	reg.Func("drs_gate_shed_total", "bench series", obs.Counter, `reason="backlog"`, read)
	soj := reg.Histogram("drs_tenant_sojourn_seconds", "bench histogram",
		[]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}, `tenant="bench"`)
	frac := reg.Histogram("drs_tenant_shed_fraction", "bench histogram",
		[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9}, `tenant="bench"`)
	for i := 0; i < 10000; i++ {
		soj.Observe(float64(i%997) / 400)
		frac.Observe(float64(i%89) / 100)
	}
	buf := make([]byte, 0, 1<<15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr.Add(1) // counters move between scrapes, as in production
		buf = reg.Write(buf[:0])
	}
	b.StopTimer()
	if len(buf) == 0 {
		b.Fatal("empty exposition")
	}
}

// BenchmarkSupervisorTickLogged is BenchmarkSupervisorTick with the full
// observability stack attached — decision log wired, per-tenant sojourn
// and shed-fraction histograms observed every round. EXPERIMENTS.md's
// observability-cost table pairs this with the bare run; the delta is the
// price of an auditable control plane (steady-state holds emit nothing,
// so it must stay near zero).
func BenchmarkSupervisorTickLogged(b *testing.B) {
	names := []string{"extract", "match", "aggregate"}
	target := &benchTarget{
		alloc: map[string]int{"extract": 10, "match": 11, "aggregate": 1},
		rep: metrics.IntervalReport{
			Duration:         10 * time.Second,
			ExternalArrivals: 130,
			Ops: []metrics.OpInterval{
				{Arrivals: 130, Served: 130, Sampled: 130, BusyTime: time.Duration(130 * 0.45 * float64(time.Second))},
				{Arrivals: 130, Served: 130, Sampled: 130, BusyTime: time.Duration(130 * 0.50 * float64(time.Second))},
				{Arrivals: 130, Served: 130, Sampled: 130, BusyTime: time.Duration(130 * 0.01 * float64(time.Second))},
			},
			SojournCount: 120,
			SojournTotal: 120 * time.Second,
		},
	}
	ctrl, err := core.NewController(core.ControllerConfig{Mode: core.ModeMinLatency, Kmax: 22, MinGain: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	dlog := obs.NewLog(obs.Config{})
	defer dlog.Close()
	reg := obs.NewRegistry()
	sup, err := loop.New(loop.Config{
		Target:      target,
		Operators:   names,
		Stepper:     ctrl,
		Pool:        loop.FixedPool(22),
		Interval:    10 * time.Second,
		Cooldown:    time.Nanosecond, // decide every round: measure the full path
		Tenant:      "bench",
		DecisionLog: dlog,
		Sojourn:     reg.Histogram("soj", "bench", []float64{0.1, 1}, `tenant="bench"`),
		ShedFrac:    reg.Histogram("shed", "bench", []float64{0.1, 0.5}, `tenant="bench"`),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sup.Tick()
	}
}

// BenchmarkSchedulerArbitrationLogged is BenchmarkSchedulerArbitration
// with the decision log wired: every grant change, preemption (with its
// Appendix-B verdict inputs) and shrink now emits a record, drained on
// the clock. The delta over the bare run is what audit costs the
// arbitration path.
func BenchmarkSchedulerArbitrationLogged(b *testing.B) {
	dlog := obs.NewLog(obs.Config{})
	defer dlog.Close()
	pool, err := cluster.NewPool(cluster.PoolConfig{SlotsPerMachine: 8, MaxMachines: 8}, 1)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := cluster.NewScheduler(cluster.SchedulerConfig{Pool: pool, DecisionLog: dlog})
	if err != nil {
		b.Fatal(err)
	}
	tenants := make([]*cluster.Tenant, 8)
	for i := range tenants {
		t, err := sched.Register(cluster.TenantConfig{
			Name:     string(rune('a' + i)),
			Weight:   float64(i%3 + 1),
			Priority: i % 2,
			MinSlots: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		t.Report(cluster.TenantReport{
			Lambda0:     10,
			Violating:   i%2 == 1,
			GrowBenefit: float64(i),
			ShrinkCost:  0.5,
		})
		tenants[i] = t
	}
	for _, t := range tenants {
		if _, err := t.Resize(12); err != nil && !errors.Is(err, cluster.ErrNoCapacity) {
			b.Fatal(err)
		}
	}
	drop := func(*obs.Record) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tenants[i%len(tenants)].Resize(12 + i%2); err != nil && !errors.Is(err, cluster.ErrNoCapacity) {
			b.Fatal(err)
		}
		if i&127 == 127 { // drain well before overflow, on the clock
			dlog.Sweep(drop)
		}
	}
	b.StopTimer()
	if st := dlog.Stats(); st.Dropped != 0 {
		b.Fatalf("ring overflowed: %d dropped", st.Dropped)
	}
}
