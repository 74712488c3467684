package metrics

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

func TestEWMA(t *testing.T) {
	s, err := NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Ready() {
		t.Error("fresh smoother must not be ready")
	}
	if got := s.Update(10); got != 10 {
		t.Errorf("first update = %g, want 10 (seed)", got)
	}
	if got := s.Update(20); got != 15 {
		t.Errorf("second update = %g, want 15", got)
	}
	if got := s.Update(15); got != 15 {
		t.Errorf("third update = %g, want 15", got)
	}
	s.Reset()
	if s.Ready() || s.Value() != 0 {
		t.Error("Reset must clear state")
	}
}

func TestEWMAAlphaValidation(t *testing.T) {
	for _, alpha := range []float64{-0.1, 1.0, 1.5} {
		if _, err := NewEWMA(alpha); err == nil {
			t.Errorf("alpha %g should be rejected", alpha)
		}
	}
}

func TestWindow(t *testing.T) {
	s, err := NewWindow(3)
	if err != nil {
		t.Fatal(err)
	}
	s.Update(3)
	if got := s.Value(); got != 3 {
		t.Errorf("value = %g, want 3", got)
	}
	s.Update(6)
	s.Update(9)
	if got := s.Value(); got != 6 {
		t.Errorf("full window mean = %g, want 6", got)
	}
	s.Update(12) // evicts 3
	if got := s.Value(); got != 9 {
		t.Errorf("rolled window mean = %g, want 9", got)
	}
	s.Reset()
	if s.Ready() {
		t.Error("Reset must clear window")
	}
}

func TestWindowValidation(t *testing.T) {
	if _, err := NewWindow(0); err == nil {
		t.Error("window 0 should be rejected")
	}
}

func TestSmoothingSpec(t *testing.T) {
	for _, spec := range []SmoothingSpec{
		{},
		{Kind: "none"},
		{Kind: "ewma", Alpha: 0.8},
		{Kind: "window", Window: 4},
	} {
		if _, err := spec.New(); err != nil {
			t.Errorf("spec %+v: %v", spec, err)
		}
	}
	if _, err := (SmoothingSpec{Kind: "fourier"}).New(); err == nil {
		t.Error("unknown kind should be rejected")
	}
	// Raw pass-through.
	s, _ := SmoothingSpec{}.New()
	s.Update(5)
	if got := s.Update(9); got != 9 {
		t.Errorf("raw smoother = %g, want 9", got)
	}
}

func TestProbeSamplingEveryNm(t *testing.T) {
	p := NewExecutorProbe(10)
	// The caller owns the stride: it times every SampleStride()-th tuple.
	for i := int64(1); i <= 100; i++ {
		p.TuplesArrived(1)
		if i%p.SampleStride() == 0 {
			p.TuplesServed(1, 1, int64(5*time.Millisecond))
		} else {
			p.TuplesServed(1, 0, 0)
		}
	}
	c := p.Drain()
	if c.Arrivals != 100 || c.Served != 100 {
		t.Errorf("arrivals/served = %d/%d, want 100/100", c.Arrivals, c.Served)
	}
	if c.Sampled != 10 {
		t.Errorf("sampled = %d, want 10 (every 10th of 100)", c.Sampled)
	}
	if c.BusyTime != 50*time.Millisecond {
		t.Errorf("busy = %v, want 50ms", c.BusyTime)
	}
	// Drain resets.
	if c2 := p.Drain(); c2.Arrivals != 0 || c2.Sampled != 0 {
		t.Errorf("second drain not empty: %+v", c2)
	}
}

func TestProbeNmFloor(t *testing.T) {
	p := NewExecutorProbe(0) // clamps to 1: sample everything
	if got := p.SampleStride(); got != 1 {
		t.Errorf("stride = %d, want 1", got)
	}
}

func TestProbeConcurrency(t *testing.T) {
	p := NewExecutorProbe(1)
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p.TuplesArrived(1)
				p.TuplesServed(1, 1, int64(time.Microsecond))
			}
		}()
	}
	wg.Wait()
	c := p.Drain()
	if c.Arrivals != goroutines*per || c.Served != goroutines*per {
		t.Errorf("counters lost updates: %+v", c)
	}
	if c.BusyTime != goroutines*per*time.Microsecond {
		t.Errorf("busy = %v", c.BusyTime)
	}
}

func newTestMeasurer(t *testing.T, spec SmoothingSpec) *Measurer {
	t.Helper()
	m, err := NewMeasurer(MeasurerConfig{
		OperatorNames: []string{"extract", "match"},
		Smoothing:     spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func makeReport(dur time.Duration, ext int64, ops []OpInterval, sojournN int64, sojournTotal time.Duration) IntervalReport {
	return IntervalReport{
		Duration: dur, ExternalArrivals: ext, Ops: ops,
		SojournCount: sojournN, SojournTotal: sojournTotal,
	}
}

func TestMeasurerDerivesRates(t *testing.T) {
	m := newTestMeasurer(t, SmoothingSpec{})
	rep := makeReport(2*time.Second, 26, []OpInterval{
		{Arrivals: 26, Served: 26, Sampled: 13, BusyTime: 13 * 450 * time.Millisecond},
		{Arrivals: 1040, Served: 1040, Sampled: 104, BusyTime: 104 * 12 * time.Millisecond},
	}, 20, 20*900*time.Millisecond)
	if err := m.AddInterval(rep); err != nil {
		t.Fatal(err)
	}
	s, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Lambda0-13) > 1e-9 {
		t.Errorf("lambda0 = %g, want 13", s.Lambda0)
	}
	if math.Abs(s.Ops[0].Lambda-13) > 1e-9 || math.Abs(s.Ops[1].Lambda-520) > 1e-9 {
		t.Errorf("lambdas = %g, %g; want 13, 520", s.Ops[0].Lambda, s.Ops[1].Lambda)
	}
	if math.Abs(s.Ops[0].Mu-1/0.45) > 1e-9 {
		t.Errorf("mu0 = %g, want %g", s.Ops[0].Mu, 1/0.45)
	}
	if math.Abs(s.Ops[1].Mu-1/0.012) > 1e-6 {
		t.Errorf("mu1 = %g, want %g", s.Ops[1].Mu, 1/0.012)
	}
	if math.Abs(s.MeasuredSojourn-0.9) > 1e-9 {
		t.Errorf("sojourn = %g, want 0.9", s.MeasuredSojourn)
	}
	if s.Ops[0].Name != "extract" {
		t.Errorf("name = %q", s.Ops[0].Name)
	}
}

func TestMeasurerNotReady(t *testing.T) {
	m := newTestMeasurer(t, SmoothingSpec{})
	if _, err := m.Snapshot(); !errors.Is(err, ErrNotReady) {
		t.Errorf("err = %v, want ErrNotReady", err)
	}
}

func TestMeasurerRejectsBadReports(t *testing.T) {
	m := newTestMeasurer(t, SmoothingSpec{})
	if err := m.AddInterval(IntervalReport{Duration: 0, Ops: make([]OpInterval, 2)}); err == nil {
		t.Error("zero duration should be rejected")
	}
	if err := m.AddInterval(IntervalReport{Duration: time.Second, Ops: make([]OpInterval, 3)}); err == nil {
		t.Error("wrong operator count should be rejected")
	}
}

func TestMeasurerMissingServiceSamples(t *testing.T) {
	m := newTestMeasurer(t, SmoothingSpec{})
	// Second operator never served anything: snapshot must refuse.
	rep := makeReport(time.Second, 10, []OpInterval{
		{Arrivals: 10, Served: 10, Sampled: 5, BusyTime: time.Second},
		{Arrivals: 0},
	}, 0, 0)
	if err := m.AddInterval(rep); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(); err == nil {
		t.Error("snapshot without mu estimate should error")
	}
}

func TestMeasurerIdleIntervalKeepsLastMu(t *testing.T) {
	m := newTestMeasurer(t, SmoothingSpec{})
	busy := makeReport(time.Second, 10, []OpInterval{
		{Arrivals: 10, Served: 10, Sampled: 10, BusyTime: time.Second},
		{Arrivals: 40, Served: 40, Sampled: 4, BusyTime: 40 * time.Millisecond},
	}, 5, 500*time.Millisecond)
	if err := m.AddInterval(busy); err != nil {
		t.Fatal(err)
	}
	idle := makeReport(time.Second, 0, []OpInterval{{}, {}}, 0, 0)
	if err := m.AddInterval(idle); err != nil {
		t.Fatal(err)
	}
	s, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if s.Ops[0].Mu != 10 {
		t.Errorf("mu lost on idle interval: %g", s.Ops[0].Mu)
	}
	if s.Ops[0].Lambda != 0 {
		t.Errorf("lambda should reflect the idle interval: %g", s.Ops[0].Lambda)
	}
}

func TestMeasurerSmoothingApplied(t *testing.T) {
	m := newTestMeasurer(t, SmoothingSpec{Kind: "ewma", Alpha: 0.5})
	ops := func(arr int64) []OpInterval {
		return []OpInterval{
			{Arrivals: arr, Served: arr, Sampled: 1, BusyTime: 100 * time.Millisecond},
			{Arrivals: arr, Served: arr, Sampled: 1, BusyTime: 100 * time.Millisecond},
		}
	}
	_ = m.AddInterval(makeReport(time.Second, 10, ops(10), 1, time.Second))
	_ = m.AddInterval(makeReport(time.Second, 20, ops(20), 1, 2*time.Second))
	s, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Lambda0-15) > 1e-9 { // 0.5*10 + 0.5*20
		t.Errorf("smoothed lambda0 = %g, want 15", s.Lambda0)
	}
	if math.Abs(s.MeasuredSojourn-1.5) > 1e-9 {
		t.Errorf("smoothed sojourn = %g, want 1.5", s.MeasuredSojourn)
	}
}

func TestMeasurerReset(t *testing.T) {
	m := newTestMeasurer(t, SmoothingSpec{})
	_ = m.AddInterval(makeReport(time.Second, 5, []OpInterval{
		{Arrivals: 5, Served: 5, Sampled: 5, BusyTime: time.Second},
		{Arrivals: 5, Served: 5, Sampled: 5, BusyTime: time.Second},
	}, 1, time.Second))
	m.Reset()
	if _, err := m.Snapshot(); !errors.Is(err, ErrNotReady) {
		t.Errorf("after Reset: err = %v, want ErrNotReady", err)
	}
}

func TestMeasurerConfigValidation(t *testing.T) {
	if _, err := NewMeasurer(MeasurerConfig{}); err == nil {
		t.Error("empty operator list should be rejected")
	}
	if _, err := NewMeasurer(MeasurerConfig{
		OperatorNames: []string{"a"},
		Smoothing:     SmoothingSpec{Kind: "bogus"},
	}); err == nil {
		t.Error("bad smoothing spec should be rejected")
	}
}

// TestMeasurerOfferedIndependentSmoothing: the offered and admitted (λ̂0)
// series must smooth independently — a shedding front end can hold the
// admitted rate flat while offered demand keeps climbing, and each series
// must follow its own inputs through the shared smoothing spec.
func TestMeasurerOfferedIndependentSmoothing(t *testing.T) {
	m := newTestMeasurer(t, SmoothingSpec{Kind: "window", Window: 2})
	ops := func() []OpInterval {
		return []OpInterval{
			{Arrivals: 10, Served: 10, Sampled: 10, BusyTime: 10 * 10 * time.Millisecond},
			{Arrivals: 10, Served: 10, Sampled: 10, BusyTime: 10 * 10 * time.Millisecond},
		}
	}
	// Interval 1: 10 admitted/s, 30 offered/s (shedding 2/3).
	rep := makeReport(time.Second, 10, ops(), 0, 0)
	rep.OfferedArrivals = 30
	if err := m.AddInterval(rep); err != nil {
		t.Fatal(err)
	}
	s, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Lambda0-10) > 1e-9 || math.Abs(s.OfferedLambda0-30) > 1e-9 {
		t.Fatalf("after interval 1: lambda0 %g / offered %g, want 10 / 30", s.Lambda0, s.OfferedLambda0)
	}
	// Interval 2: same admitted, offered unset — the in-process-spout
	// default, where offered falls back to admitted for that interval.
	if err := m.AddInterval(makeReport(time.Second, 10, ops(), 0, 0)); err != nil {
		t.Fatal(err)
	}
	s, err = m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Lambda0-10) > 1e-9 {
		t.Fatalf("lambda0 %g, want 10 (unchanged by the offered series)", s.Lambda0)
	}
	if math.Abs(s.OfferedLambda0-20) > 1e-9 {
		t.Fatalf("offered %g, want (30+10)/2 = 20 — the window must smooth offered on its own inputs", s.OfferedLambda0)
	}
	// A probe reporting offered below admitted is clamped up: admitted
	// tuples were necessarily offered.
	rep = makeReport(time.Second, 10, ops(), 0, 0)
	rep.OfferedArrivals = 5
	if err := m.AddInterval(rep); err != nil {
		t.Fatal(err)
	}
	s, err = m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.OfferedLambda0-10) > 1e-9 { // window holds (10+10)/2
		t.Fatalf("offered %g after clamped interval, want 10", s.OfferedLambda0)
	}
	// Reset clears the offered series with everything else.
	m.Reset()
	if err := m.AddInterval(makeReport(time.Second, 10, ops(), 0, 0)); err != nil {
		t.Fatal(err)
	}
	s, err = m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.OfferedLambda0-10) > 1e-9 {
		t.Fatalf("offered %g after reset, want 10", s.OfferedLambda0)
	}
}
