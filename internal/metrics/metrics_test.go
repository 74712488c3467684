package metrics

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

func TestWindow(t *testing.T) {
	var s window
	if s.n != 0 || s.value() != 0 {
		t.Error("fresh window must be empty")
	}
	s.update(3)
	if got := s.value(); got != 3 {
		t.Errorf("value = %g, want 3", got)
	}
	for _, x := range []float64{6, 9, 12, 15, 18} {
		s.update(x)
	}
	if got := s.value(); got != 10.5 {
		t.Errorf("full window mean = %g, want 10.5", got)
	}
	s.update(21) // evicts 3
	if got := s.value(); got != 13.5 {
		t.Errorf("rolled window mean = %g, want 13.5", got)
	}
}

func TestProbeCountsEveryTuple(t *testing.T) {
	p := NewExecutorProbe()
	for i := 0; i < 100; i++ {
		p.TuplesArrived(1)
		p.TuplesServed(1, int64(5*time.Millisecond))
	}
	c := p.Drain()
	if c.Arrivals != 100 || c.Served != 100 {
		t.Errorf("arrivals/served = %d/%d, want 100/100", c.Arrivals, c.Served)
	}
	if c.BusyTime != 500*time.Millisecond {
		t.Errorf("busy = %v, want 500ms", c.BusyTime)
	}
	// Drain resets.
	if c2 := p.Drain(); c2.Arrivals != 0 || c2.Served != 0 || c2.BusyTime != 0 {
		t.Errorf("second drain not empty: %+v", c2)
	}
	if got := p.ServedTotal(); got != 100 {
		t.Errorf("served total = %d, want 100 (unaffected by Drain)", got)
	}
}

func TestProbeConcurrency(t *testing.T) {
	p := NewExecutorProbe()
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p.TuplesArrived(1)
				p.TuplesServed(1, int64(time.Microsecond))
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

func newTestMeasurer(t *testing.T) *Measurer {
	t.Helper()
	m, err := NewMeasurer(MeasurerConfig{
		OperatorNames: []string{"extract", "match"},
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
	m := newTestMeasurer(t)
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
	m := newTestMeasurer(t)
	if _, err := m.Snapshot(); !errors.Is(err, ErrNotReady) {
		t.Errorf("err = %v, want ErrNotReady", err)
	}
}

func TestMeasurerRejectsBadReports(t *testing.T) {
	m := newTestMeasurer(t)
	if err := m.AddInterval(IntervalReport{Duration: 0, Ops: make([]OpInterval, 2)}); err == nil {
		t.Error("zero duration should be rejected")
	}
	if err := m.AddInterval(IntervalReport{Duration: time.Second, Ops: make([]OpInterval, 3)}); err == nil {
		t.Error("wrong operator count should be rejected")
	}
}

func TestMeasurerMissingServiceSamples(t *testing.T) {
	m := newTestMeasurer(t)
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
	m := newTestMeasurer(t)
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
	if s.Ops[0].Lambda != 5 { // the window holds (10 + 0)/2
		t.Errorf("lambda should reflect the idle interval: %g, want 5", s.Ops[0].Lambda)
	}
}

func TestMeasurerSmoothingApplied(t *testing.T) {
	m := newTestMeasurer(t)
	ops := func(arr int64) []OpInterval {
		return []OpInterval{
			{Arrivals: arr, Served: arr, Sampled: 1, BusyTime: 100 * time.Millisecond},
			{Arrivals: arr, Served: arr, Sampled: 1, BusyTime: 100 * time.Millisecond},
		}
	}
	// Seven intervals: the window keeps the last smoothingWindow of them.
	for k := int64(1); k <= smoothingWindow+1; k++ {
		if err := m.AddInterval(makeReport(time.Second, 10*k, ops(10*k), 1, time.Duration(k)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Lambda0-45) > 1e-9 { // mean of 20..70
		t.Errorf("smoothed lambda0 = %g, want 45", s.Lambda0)
	}
	if math.Abs(s.MeasuredSojourn-4.5) > 1e-9 { // mean of 2..7 s
		t.Errorf("smoothed sojourn = %g, want 4.5", s.MeasuredSojourn)
	}
}

func TestMeasurerReset(t *testing.T) {
	m := newTestMeasurer(t)
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
}

// TestMeasurerOfferedIndependentSmoothing: the offered and admitted (λ̂0)
// series must smooth independently — a shedding front end can hold the
// admitted rate flat while offered demand keeps climbing, and each series
// must follow its own inputs through its own window.
func TestMeasurerOfferedIndependentSmoothing(t *testing.T) {
	m := newTestMeasurer(t)
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
	if math.Abs(s.OfferedLambda0-50.0/3) > 1e-9 { // window holds (30+10+10)/3
		t.Fatalf("offered %g after clamped interval, want 50/3", s.OfferedLambda0)
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
