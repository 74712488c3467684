package sim

import (
	"math"
	"testing"

	"github.com/drs-repro/drs/internal/metrics"
	"github.com/drs-repro/drs/internal/queueing"
	"github.com/drs-repro/drs/internal/stats"
)

// single builds a one-operator simulation with Poisson arrivals and
// exponential service — an M/M/k system with a known sojourn time.
func single(t *testing.T, lambda, mu float64, k int, seed uint64) *Sim {
	t.Helper()
	s, err := New(Config{
		Operators: []OperatorSpec{{Service: stats.Exponential{Rate: mu}}},
		Sources:   []SourceSpec{{Op: 0, Arrivals: PoissonArrivals{Rate: lambda}}},
		Alloc:     []int{k},
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMM1AgainstClosedForm(t *testing.T) {
	lambda, mu := 8.0, 10.0
	s := single(t, lambda, mu, 1, 1)
	s.SetWarmup(200)
	s.RunUntil(20000)
	want := queueing.ExpectedSojourn(lambda, mu, 1) // 0.5s
	got := s.CompletedStats().Mean()
	if math.Abs(got-want) > 0.04*want {
		t.Errorf("M/M/1 mean sojourn = %.4f, theory %.4f", got, want)
	}
}

func TestMMkAgainstClosedForm(t *testing.T) {
	tests := []struct {
		name       string
		lambda, mu float64
		k          int
	}{
		{"moderate load", 20, 3, 10},
		{"high load", 28, 3, 10},
		{"many servers light", 50, 10, 8},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := single(t, tt.lambda, tt.mu, tt.k, 7)
			s.SetWarmup(200)
			s.RunUntil(15000)
			want := queueing.ExpectedSojourn(tt.lambda, tt.mu, tt.k)
			got := s.CompletedStats().Mean()
			if math.Abs(got-want) > 0.06*want {
				t.Errorf("M/M/%d mean sojourn = %.4f, theory %.4f", tt.k, got, want)
			}
		})
	}
}

func TestDeterministicChainSojourn(t *testing.T) {
	// One tuple through a 2-op chain with deterministic service and no
	// network delay: sojourn must be exactly the sum of service times.
	s, err := New(Config{
		Operators: []OperatorSpec{
			{Service: deterministic{Value: 0.1}},
			{Service: deterministic{Value: 0.2}},
		},
		Edges:   []EdgeSpec{{From: 0, To: 1, Emit: FractionalEmission{Selectivity: 1}}},
		Sources: []SourceSpec{{Op: 0, Arrivals: deterministicArrivals{Rate: 1}}},
		Alloc:   []int{1, 1},
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(1.5) // first arrival at t=1, completes at 1.3
	cs := s.CompletedStats()
	if cs.Count() != 1 {
		t.Fatalf("completed = %d, want 1", cs.Count())
	}
	if math.Abs(cs.Mean()-0.3) > 1e-9 {
		t.Errorf("sojourn = %g, want 0.3", cs.Mean())
	}
}

func TestFanOutTreeCompletion(t *testing.T) {
	// Each input spawns 3 children on a second operator; the root completes
	// only when all three finish. With k=3 downstream and deterministic
	// 0.2s service, all children run in parallel: sojourn = 0.1 + 0.2.
	s, err := New(Config{
		Operators: []OperatorSpec{
			{Service: deterministic{Value: 0.1}},
			{Service: deterministic{Value: 0.2}},
		},
		Edges:   []EdgeSpec{{From: 0, To: 1, Emit: FractionalEmission{Selectivity: 3}}},
		Sources: []SourceSpec{{Op: 0, Arrivals: deterministicArrivals{Rate: 0.1}}},
		Alloc:   []int{1, 3},
		Seed:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(11)
	cs := s.CompletedStats()
	if cs.Count() != 1 {
		t.Fatalf("completed = %d, want 1", cs.Count())
	}
	if math.Abs(cs.Mean()-0.3) > 1e-9 {
		t.Errorf("fan-out sojourn = %g, want 0.3", cs.Mean())
	}
	// With only 1 downstream server the children serialize: 0.1 + 3*0.2.
	s2, err := New(Config{
		Operators: []OperatorSpec{
			{Service: deterministic{Value: 0.1}},
			{Service: deterministic{Value: 0.2}},
		},
		Edges:   []EdgeSpec{{From: 0, To: 1, Emit: FractionalEmission{Selectivity: 3}}},
		Sources: []SourceSpec{{Op: 0, Arrivals: deterministicArrivals{Rate: 0.1}}},
		Alloc:   []int{1, 1},
		Seed:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	s2.RunUntil(11)
	if got := s2.CompletedStats().Mean(); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("serialized fan-out sojourn = %g, want 0.7", got)
	}
}

func TestLoopTupleTreeResolves(t *testing.T) {
	// Self-loop with gain 0.5: trees are finite a.s. and arrival rate at
	// the operator doubles relative to the external rate.
	s, err := New(Config{
		Operators: []OperatorSpec{{Service: stats.Exponential{Rate: 50}}},
		Edges:     []EdgeSpec{{From: 0, To: 0, Emit: FractionalEmission{Selectivity: 0.5}}},
		Sources:   []SourceSpec{{Op: 0, Arrivals: PoissonArrivals{Rate: 10}}},
		Alloc:     []int{2},
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(100)
	rep := s.DrainInterval()
	extRate := float64(rep.ExternalArrivals) / rep.Duration.Seconds()
	opRate := float64(rep.Ops[0].Arrivals) / rep.Duration.Seconds()
	if math.Abs(extRate-10) > 1 {
		t.Errorf("external rate = %g, want ~10", extRate)
	}
	if math.Abs(opRate-20) > 2 {
		t.Errorf("operator arrival rate = %g, want ~20 (loop amplification)", opRate)
	}
	if s.CompletedStats().Count() == 0 {
		t.Fatal("no completions with loop topology")
	}
}

func TestTrafficEquationsHoldInChain(t *testing.T) {
	// spout-fed chain with fan-out 5 then split 0.4: measured rates must
	// match the Jackson traffic solution.
	s, err := New(Config{
		Operators: []OperatorSpec{
			{Service: stats.Exponential{Rate: 100}},
			{Service: stats.Exponential{Rate: 400}},
			{Service: stats.Exponential{Rate: 100}},
		},
		Edges: []EdgeSpec{
			{From: 0, To: 1, Emit: FractionalEmission{Selectivity: 5}},
			{From: 1, To: 2, Emit: FractionalEmission{Selectivity: 0.4}},
		},
		Sources: []SourceSpec{{Op: 0, Arrivals: PoissonArrivals{Rate: 20}}},
		Alloc:   []int{1, 1, 1},
		Seed:    6,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(300)
	rep := s.DrainInterval()
	secs := rep.Duration.Seconds()
	want := []float64{20, 100, 40}
	for i, w := range want {
		got := float64(rep.Ops[i].Arrivals) / secs
		if math.Abs(got-w) > 0.05*w {
			t.Errorf("op %d arrival rate = %g, want ~%g", i, got, w)
		}
	}
}

func TestNetworkDelayAddsToSojournNotModel(t *testing.T) {
	base := Config{
		Operators: []OperatorSpec{
			{Service: deterministic{Value: 0.01}},
			{Service: deterministic{Value: 0.01}},
		},
		Edges:   []EdgeSpec{{From: 0, To: 1, Emit: FractionalEmission{Selectivity: 1}}},
		Sources: []SourceSpec{{Op: 0, Arrivals: PoissonArrivals{Rate: 5}}},
		Alloc:   []int{2, 2},
		Seed:    8,
	}
	noDelay, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	noDelay.SetWarmup(10)
	noDelay.RunUntil(500)

	withDelay := base
	withDelay.Edges = []EdgeSpec{{
		From: 0, To: 1,
		Emit:     FractionalEmission{Selectivity: 1},
		NetDelay: deterministic{Value: 0.05},
	}}
	d, err := New(withDelay)
	if err != nil {
		t.Fatal(err)
	}
	d.SetWarmup(10)
	d.RunUntil(500)

	gap := d.CompletedStats().Mean() - noDelay.CompletedStats().Mean()
	if math.Abs(gap-0.05) > 0.005 {
		t.Errorf("network delay gap = %g, want ~0.05", gap)
	}
}

func TestSetAllocationReliefsOverload(t *testing.T) {
	// Start under-provisioned (k=1 for load needing 3): queue grows.
	// After SetAllocation(4) the system drains and sojourn recovers.
	s := single(t, 25, 10, 1, 9)
	s.EnableSeries(10)
	s.RunUntil(60)
	early := s.Series()
	if err := s.SetAllocation([]int{4}, 0); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(300)
	late := s.Series()
	if len(early) < 5 || len(late) < 25 {
		t.Fatalf("series lengths %d/%d", len(early), len(late))
	}
	lateMean := late[len(late)-1].MeanSojourn
	earlyMean := early[len(early)-1].MeanSojourn
	if !(lateMean < earlyMean/3) {
		t.Errorf("rebalance did not relieve overload: early %g late %g", earlyMean, lateMean)
	}
	want := queueing.ExpectedSojourn(25, 10, 4)
	if math.Abs(lateMean-want) > 0.5*want {
		t.Errorf("steady state after rebalance %g, theory %g", lateMean, want)
	}
}

func TestSetAllocationPauseCausesSpike(t *testing.T) {
	s := single(t, 50, 10, 8, 10)
	s.EnableSeries(5)
	s.SetWarmup(0)
	s.RunUntil(100)
	if err := s.SetAllocation([]int{8}, 3.0); err != nil { // 3s frozen pause
		t.Fatal(err)
	}
	s.RunUntil(200)
	series := s.Series()
	// Find the bucket containing t=100..105 and compare to the steady state.
	var spike, steady float64
	for _, p := range series {
		if p.Start == 100 {
			spike = p.MeanSojourn
		}
		if p.Start == 50 {
			steady = p.MeanSojourn
		}
	}
	if !(spike > steady+1.0) {
		t.Errorf("pause spike %g not visible over steady %g", spike, steady)
	}
	// Recovery: final bucket back near steady state.
	final := series[len(series)-1].MeanSojourn
	if final > steady*3 {
		t.Errorf("no recovery after pause: final %g vs steady %g", final, steady)
	}
}

func TestSetAllocationValidation(t *testing.T) {
	s := single(t, 5, 10, 1, 11)
	if err := s.SetAllocation([]int{1, 2}, 0); err == nil {
		t.Error("wrong length should error")
	}
	if err := s.SetAllocation([]int{0}, 0); err == nil {
		t.Error("zero processors should error")
	}
}

func TestMaxQueueDropsAndCounts(t *testing.T) {
	s, err := New(Config{
		Operators: []OperatorSpec{{Service: deterministic{Value: 1}}},
		Sources:   []SourceSpec{{Op: 0, Arrivals: deterministicArrivals{Rate: 10}}},
		Alloc:     []int{1},
		Seed:      12,
		MaxQueue:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(10)
	if d := s.Dropped()[0]; d == 0 {
		t.Error("overloaded bounded queue should drop tuples")
	}
	if q := queued(s, 0); q > 5 {
		t.Errorf("queue length %d exceeds bound 5", q)
	}
}

func TestSeriesBuckets(t *testing.T) {
	s := single(t, 10, 100, 1, 13)
	s.EnableSeries(1)
	s.RunUntil(10.5)
	series := s.Series()
	if len(series) != 10 {
		t.Fatalf("series length = %d, want 10 closed buckets", len(series))
	}
	for i, p := range series {
		if p.Start != float64(i) {
			t.Errorf("bucket %d start = %g", i, p.Start)
		}
		if p.Count == 0 || math.IsNaN(p.MeanSojourn) {
			t.Errorf("bucket %d empty at rate 10/s", i)
		}
	}
}

func TestDrainIntervalFeedsMeasurer(t *testing.T) {
	// End-to-end: simulator measurements through the production measurer
	// must recover the configured rates.
	lambda, mu := 40.0, 9.0
	s := single(t, lambda, mu, 6, 14)
	m, err := metrics.NewMeasurer(metrics.MeasurerConfig{OperatorNames: []string{"op"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		s.RunUntil(float64(i) * 30)
		if err := m.AddInterval(s.DrainInterval()); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(snap.Lambda0-lambda) > 0.05*lambda {
		t.Errorf("measured lambda0 = %g, want ~%g", snap.Lambda0, lambda)
	}
	if math.Abs(snap.Ops[0].Mu-mu) > 0.05*mu {
		t.Errorf("measured mu = %g, want ~%g", snap.Ops[0].Mu, mu)
	}
	want := queueing.ExpectedSojourn(lambda, mu, 6)
	if math.Abs(snap.MeasuredSojourn-want) > 0.15*want {
		t.Errorf("measured sojourn = %g, theory %g", snap.MeasuredSojourn, want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, int64) {
		s := single(t, 20, 3, 9, 42)
		s.RunUntil(500)
		cs := s.CompletedStats()
		return cs.Mean(), cs.Count()
	}
	m1, c1 := run()
	m2, c2 := run()
	if m1 != m2 || c1 != c2 {
		t.Errorf("same seed diverged: (%g, %d) vs (%g, %d)", m1, c1, m2, c2)
	}
}

func TestConfigValidation(t *testing.T) {
	op := []OperatorSpec{{Service: deterministic{Value: 1}}}
	src := []SourceSpec{{Op: 0, Arrivals: PoissonArrivals{Rate: 1}}}
	tests := []struct {
		name string
		cfg  Config
	}{
		{"no operators", Config{Sources: src}},
		{"alloc mismatch", Config{Operators: op, Sources: src, Alloc: []int{1, 2}}},
		{"zero alloc", Config{Operators: op, Sources: src, Alloc: []int{0}}},
		{"edge out of range", Config{Operators: op, Sources: src, Alloc: []int{1},
			Edges: []EdgeSpec{{From: 0, To: 5, Emit: FractionalEmission{Selectivity: 1}}}}},
		{"edge without emission", Config{Operators: op, Sources: src, Alloc: []int{1},
			Edges: []EdgeSpec{{From: 0, To: 0}}}},
		{"no sources", Config{Operators: op, Alloc: []int{1}}},
		{"source out of range", Config{Operators: op, Alloc: []int{1},
			Sources: []SourceSpec{{Op: 3, Arrivals: PoissonArrivals{Rate: 1}}}}},
		{"source without arrivals", Config{Operators: op, Alloc: []int{1},
			Sources: []SourceSpec{{Op: 0}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestModulatedRateMean(t *testing.T) {
	r := stats.NewRNG(15)
	m := &ModulatedRate{RateDist: stats.Uniform{Lo: 1, Hi: 25}, Period: 1}
	// Long-run arrival count over T seconds ~ 13*T.
	clock, n := 0.0, 0
	for clock < 5000 {
		clock += m.NextInterArrival(r)
		n++
	}
	rate := float64(n) / clock
	if math.Abs(rate-13) > 1.0 {
		t.Errorf("long-run modulated rate = %g, want ~13", rate)
	}
}

func TestEmissionModels(t *testing.T) {
	r := stats.NewRNG(16)
	for _, sel := range []float64{0.3, 1, 2.5, 5} {
		f, err := NewFractionalEmission(sel)
		if err != nil {
			t.Fatal(err)
		}
		var s stats.Summary
		for i := 0; i < 100000; i++ {
			s.Add(float64(f.Count(r)))
		}
		if math.Abs(s.Mean()-sel) > 0.03*sel+0.01 {
			t.Errorf("fractional emission mean(%g) = %g", sel, s.Mean())
		}
		p := PoissonEmission{Selectivity: sel}
		s.Reset()
		for i := 0; i < 100000; i++ {
			s.Add(float64(p.Count(r)))
		}
		if math.Abs(s.Mean()-sel) > 0.05*sel+0.02 {
			t.Errorf("poisson emission mean(%g) = %g", sel, s.Mean())
		}
	}
	if _, err := NewFractionalEmission(-1); err == nil {
		t.Error("negative selectivity should error")
	}
	if _, err := NewFractionalEmission(math.Inf(1)); err == nil {
		t.Error("infinite selectivity should error")
	}
}

func TestRunUntilIdempotentPast(t *testing.T) {
	s := single(t, 5, 10, 1, 17)
	s.RunUntil(10)
	c1 := s.CompletedStats().Count()
	s.RunUntil(5) // going backwards is a no-op
	if s.CompletedStats().Count() != c1 {
		t.Error("RunUntil into the past must not re-run events")
	}
	if s.clock != 10 {
		t.Errorf("clock = %g, want 10", s.clock)
	}
}

// queued is operator op's instantaneous queue length.
func queued(s *Sim, op int) int { return s.stations[op].queue.len() }

func TestTupleConservationProperty(t *testing.T) {
	// Property: served counts per operator must equal what the emission
	// models produced upstream plus external arrivals — no tuple is lost
	// or duplicated by the event loop (checked after full drain).
	for _, seed := range []uint64{1, 7, 42, 99} {
		s, err := New(Config{
			Operators: []OperatorSpec{
				{Service: stats.Exponential{Rate: 200}},
				{Service: stats.Exponential{Rate: 400}},
				{Service: stats.Exponential{Rate: 300}},
			},
			Edges: []EdgeSpec{
				{From: 0, To: 1, Emit: PoissonEmission{Selectivity: 2}},
				{From: 1, To: 2, Emit: FractionalEmission{Selectivity: 0.5}},
				{From: 2, To: 0, Emit: FractionalEmission{Selectivity: 0.1}}, // loop
			},
			Sources: []SourceSpec{{Op: 0, Arrivals: PoissonArrivals{Rate: 30}}},
			Alloc:   []int{2, 2, 2},
			Seed:    seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.RunUntil(50)
		// Drain: no further external arrivals matter; run until queues empty.
		for i := 0; i < 100; i++ {
			if queued(s, 0)+queued(s, 1)+queued(s, 2) == 0 {
				break
			}
			s.RunUntil(s.clock + 1)
		}
		rep := s.DrainInterval()
		for i, op := range rep.Ops {
			if op.Arrivals < op.Served {
				t.Errorf("seed %d op %d: served %d > arrivals %d", seed, i, op.Served, op.Arrivals)
			}
			// After draining, everything that arrived was served (modulo
			// tuples still in flight via pending source events).
			if op.Arrivals-op.Served > int64(queued(s, i)+5) {
				t.Errorf("seed %d op %d: %d tuples unaccounted", seed, i, op.Arrivals-op.Served)
			}
		}
	}
}

func TestSojournQuantilesMatchClosedForm(t *testing.T) {
	// The M/M/k sojourn-tail closed form (queueing.SojournTail) must match
	// simulated quantiles — the validation behind quantile-aware planning.
	lambda, mu, k := 20.0, 3.0, 9
	s := single(t, lambda, mu, k, 33)
	s.SetWarmup(100)
	s.KeepCompletionSample()
	s.RunUntil(8000)
	sample := s.CompletedSample()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := queueing.SojournQuantile(lambda, mu, k, q)
		got := sample.Quantile(q)
		if math.Abs(got-want) > 0.08*want {
			t.Errorf("q=%g: simulated %0.4f, closed form %0.4f", q, got, want)
		}
	}
}

// deterministic is a constant service time or hop delay: the fixture
// that makes a sojourn exact.
type deterministic struct{ Value float64 }

func (d deterministic) Sample(*stats.RNG) float64 { return d.Value }
func (d deterministic) Mean() float64             { return d.Value }

// deterministicArrivals spaces arrivals exactly 1/Rate apart.
type deterministicArrivals struct{ Rate float64 }

func (d deterministicArrivals) NextInterArrival(*stats.RNG) float64 { return 1 / d.Rate }

// finiteArrivals emits exactly n evenly-spaced tuples, then goes silent —
// so a test can let the system drain completely.
type finiteArrivals struct {
	n    int
	rate float64
}

func (f *finiteArrivals) NextInterArrival(*stats.RNG) float64 {
	if f.n <= 0 {
		return math.Inf(1)
	}
	f.n--
	return 1 / f.rate
}

// TestPendingRootsDrainsToZero: in-flight trees are visible while work is
// queued and the counter returns to zero once the system drains.
func TestPendingRootsDrainsToZero(t *testing.T) {
	emit, err := NewFractionalEmission(2) // fan-out: trees outlive first hop
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Operators: []OperatorSpec{
			{Service: stats.Exponential{Rate: 4}},
			{Service: stats.Exponential{Rate: 8}},
		},
		Sources: []SourceSpec{{Op: 0, Arrivals: &finiteArrivals{n: 500, rate: 3}}},
		Edges:   []EdgeSpec{{From: 0, To: 1, Emit: emit}},
		Alloc:   []int{1, 1},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(20)
	if s.PendingRoots() <= 0 {
		t.Fatalf("pending roots mid-run = %d, want > 0", s.PendingRoots())
	}
	// All 500 arrivals land by ~167s; give the queues time to drain.
	s.RunUntil(10_000)
	if got := s.PendingRoots(); got != 0 {
		t.Fatalf("pending roots after drain = %d, want 0", got)
	}
}
