package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/drs-repro/drs/internal/queueing"
	"github.com/drs-repro/drs/internal/stats"
	"github.com/drs-repro/drs/internal/topology"
)

func mustModel(t *testing.T, lambda0 float64, ops []OpRates) *Model {
	t.Helper()
	m, err := NewModel(lambda0, ops)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// vldLikeModel resembles the paper's VLD application: a 3-operator chain
// with a slow feature extractor, a high-fan-in matcher and a light
// aggregator, sized so Kmax=22 is comfortable.
func vldLikeModel(t *testing.T) *Model {
	t.Helper()
	return mustModel(t, 13, []OpRates{
		{Name: "extract", Lambda: 13, Mu: 1.5},
		{Name: "match", Lambda: 650, Mu: 68},
		{Name: "aggregate", Lambda: 130, Mu: 700},
	})
}

func TestNewModelValidation(t *testing.T) {
	valid := []OpRates{{Name: "a", Lambda: 1, Mu: 2}}
	tests := []struct {
		name    string
		lambda0 float64
		ops     []OpRates
	}{
		{"zero lambda0", 0, valid},
		{"negative lambda0", -1, valid},
		{"NaN lambda0", math.NaN(), valid},
		{"no operators", 1, nil},
		{"negative lambda", 1, []OpRates{{Lambda: -1, Mu: 1}}},
		{"zero mu", 1, []OpRates{{Lambda: 1, Mu: 0}}},
		{"infinite lambda", 1, []OpRates{{Lambda: math.Inf(1), Mu: 1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewModel(tt.lambda0, tt.ops); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestModelCopiesInput(t *testing.T) {
	ops := []OpRates{{Name: "a", Lambda: 1, Mu: 2}}
	m := mustModel(t, 1, ops)
	ops[0].Lambda = 999
	if m.Rates()[0].Lambda == 999 {
		t.Error("model must copy the rates slice")
	}
	got := m.Rates()
	got[0].Mu = 123
	if m.Rates()[0].Mu == 123 {
		t.Error("Rates must return a copy")
	}
}

func TestExpectedSojournIsWeightedAverage(t *testing.T) {
	// Equation (3) by hand for a 2-operator network.
	m := mustModel(t, 4, []OpRates{
		{Name: "a", Lambda: 4, Mu: 3},
		{Name: "b", Lambda: 8, Mu: 5},
	})
	k := []int{2, 3}
	want := (4*queueing.ExpectedSojourn(4, 3, 2) + 8*queueing.ExpectedSojourn(8, 5, 3)) / 4
	got, err := m.ExpectedSojourn(k)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("E[T] = %g, want %g", got, want)
	}
}

func TestExpectedSojournDimensionMismatch(t *testing.T) {
	m := vldLikeModel(t)
	if _, err := m.ExpectedSojourn([]int{1, 2}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("err = %v, want ErrDimensionMismatch", err)
	}
}

func TestExpectedSojournUnstableAllocation(t *testing.T) {
	m := vldLikeModel(t)
	got, err := m.ExpectedSojourn([]int{1, 11, 1}) // extractor needs >= 9
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Errorf("E[T] = %g, want +Inf for unstable allocation", got)
	}
}

func TestModelFromTopologyMatchesManual(t *testing.T) {
	topo, err := topology.NewBuilder().
		AddOperator("extract", 1.5, 13).
		AddOperator("match", 68, 0).
		Connect("extract", "match", 50).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModelFromTopology(topo)
	if err != nil {
		t.Fatal(err)
	}
	if m.Lambda0() != 13 {
		t.Errorf("lambda0 = %g", m.Lambda0())
	}
	rates := m.Rates()
	if rates[1].Lambda != 650 {
		t.Errorf("matcher lambda = %g, want 650", rates[1].Lambda)
	}
	manual := mustModel(t, 13, []OpRates{
		{Lambda: 13, Mu: 1.5}, {Lambda: 650, Mu: 68},
	})
	k := []int{10, 11}
	a, _ := m.ExpectedSojourn(k)
	b, _ := manual.ExpectedSojourn(k)
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("topology model %g != manual model %g", a, b)
	}
}

func TestLowerBound(t *testing.T) {
	m := mustModel(t, 2, []OpRates{
		{Lambda: 2, Mu: 4},  // service 0.5
		{Lambda: 6, Mu: 12}, // service 0.5 each, weighted 3x
	})
	want := (2*0.25 + 6*(1.0/12)) / 2
	if got := m.LowerBound(); math.Abs(got-want) > 1e-12 {
		t.Errorf("LowerBound = %g, want %g", got, want)
	}
	// Moderate allocations must strictly exceed the bound...
	etMid, _ := m.ExpectedSojourn([]int{3, 3})
	if etMid <= m.LowerBound() {
		t.Errorf("E[T]=%g should exceed lower bound %g", etMid, m.LowerBound())
	}
	// ...and generous ones approach it (equality up to float rounding).
	et, _ := m.ExpectedSojourn([]int{60, 60})
	if et < m.LowerBound()*(1-1e-12) || et > m.LowerBound()*1.001 {
		t.Errorf("E[T]=%g should be within 0.1%% above bound %g at k=60", et, m.LowerBound())
	}
}

func TestMinAllocation(t *testing.T) {
	m := vldLikeModel(t)
	k, total, err := m.MinAllocation()
	if err != nil {
		t.Fatal(err)
	}
	// extract: 13/1.5 = 8.67 -> 9; match: 650/68 = 9.56 -> 10; agg: 130/700 -> 1.
	want := []int{9, 10, 1}
	for i := range want {
		if k[i] != want[i] {
			t.Errorf("k[%d] = %d, want %d", i, k[i], want[i])
		}
	}
	if total != 20 {
		t.Errorf("total = %d, want 20", total)
	}
}

func TestAssignProcessorsInsufficientBudget(t *testing.T) {
	m := vldLikeModel(t)
	if _, err := m.AssignProcessors(19); !errors.Is(err, ErrInsufficientResources) {
		t.Errorf("err = %v, want ErrInsufficientResources", err)
	}
}

func TestAssignProcessorsUsesFullBudgetWhileUseful(t *testing.T) {
	m := vldLikeModel(t)
	k, err := m.AssignProcessors(22)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(k); got != 22 {
		t.Errorf("allocated %d of 22: %v", got, k)
	}
	et, err := m.ExpectedSojourn(k)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(et, 1) {
		t.Error("optimal allocation must be stable")
	}
}

func TestAssignProcessorsMatchesBruteForce(t *testing.T) {
	// Theorem 1 on a deliberately mixed instance (small enough to enumerate).
	m := mustModel(t, 5, []OpRates{
		{Name: "a", Lambda: 5, Mu: 2},
		{Name: "b", Lambda: 10, Mu: 4},
		{Name: "c", Lambda: 3, Mu: 10},
	})
	for kmax := 8; kmax <= 20; kmax++ {
		greedy, err := m.AssignProcessors(kmax)
		if err != nil {
			t.Fatal(err)
		}
		brute, bruteT, err := m.bruteForceAssign(kmax)
		if err != nil {
			t.Fatal(err)
		}
		greedyT, _ := m.ExpectedSojourn(greedy)
		if math.Abs(greedyT-bruteT) > 1e-9*(1+bruteT) {
			t.Errorf("kmax=%d: greedy %v (E=%g) vs brute %v (E=%g)", kmax, greedy, greedyT, brute, bruteT)
		}
	}
}

func TestAssignProcessorsMatchesBruteForceRandomized(t *testing.T) {
	// Theorem 1 as a property over random 3-operator instances.
	rng := stats.NewRNG(20260612)
	for trial := 0; trial < 60; trial++ {
		lambda0 := 1 + rng.Float64()*20
		ops := []OpRates{
			{Lambda: lambda0, Mu: 0.5 + rng.Float64()*5},
			{Lambda: lambda0 * (1 + rng.Float64()*4), Mu: 1 + rng.Float64()*10},
			{Lambda: lambda0 * rng.Float64() * 2, Mu: 1 + rng.Float64()*10},
		}
		m, err := NewModel(lambda0, ops)
		if err != nil {
			t.Fatal(err)
		}
		_, minTotal, err := m.MinAllocation()
		if err != nil {
			t.Fatal(err)
		}
		kmax := minTotal + 2 + rng.IntN(8)
		greedy, err := m.AssignProcessors(kmax)
		if err != nil {
			t.Fatal(err)
		}
		_, bruteT, err := m.bruteForceAssign(kmax)
		if err != nil {
			t.Fatal(err)
		}
		greedyT, _ := m.ExpectedSojourn(greedy)
		if greedyT > bruteT*(1+1e-9) {
			t.Fatalf("trial %d: greedy E=%g worse than brute-force E=%g (ops=%v kmax=%d)",
				trial, greedyT, bruteT, ops, kmax)
		}
	}
}

func TestHeapMatchesScanImplementation(t *testing.T) {
	rng := stats.NewRNG(77)
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.IntN(6)
		ops := make([]OpRates, n)
		for i := range ops {
			ops[i] = OpRates{Lambda: 0.5 + rng.Float64()*200, Mu: 0.5 + rng.Float64()*50}
		}
		m, err := NewModel(1+rng.Float64()*10, ops)
		if err != nil {
			t.Fatal(err)
		}
		_, minTotal, err := m.MinAllocation()
		if err != nil {
			t.Fatal(err)
		}
		kmax := minTotal + rng.IntN(40)
		h, errH := m.AssignProcessors(kmax)
		s, errS := m.assignProcessorsScan(kmax)
		if (errH == nil) != (errS == nil) {
			t.Fatalf("error mismatch: heap=%v scan=%v", errH, errS)
		}
		if errH != nil {
			continue
		}
		// Ties can be broken differently; both must achieve the same E[T].
		ht, _ := m.ExpectedSojourn(h)
		st, _ := m.ExpectedSojourn(s)
		if math.Abs(ht-st) > 1e-9*(1+st) {
			t.Fatalf("heap %v (E=%g) != scan %v (E=%g)", h, ht, s, st)
		}
	}
}

func TestAssignProcessorsPaperScenarioVLD(t *testing.T) {
	// With VLD-like rates and Kmax=22 the recommendation should land on
	// the paper's (10:11:1).
	m := vldLikeModel(t)
	k, err := m.AssignProcessors(22)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{10, 11, 1}
	for i := range want {
		if k[i] != want[i] {
			t.Fatalf("allocation = %v, want %v", k, want)
		}
	}
}

func TestMinProcessorsMeetsTargetMinimally(t *testing.T) {
	m := vldLikeModel(t)
	tmax := m.LowerBound() * 1.15
	k, err := m.MinProcessors(tmax)
	if err != nil {
		t.Fatal(err)
	}
	et, err := m.ExpectedSojourn(k)
	if err != nil {
		t.Fatal(err)
	}
	if et > tmax {
		t.Errorf("E[T] = %g exceeds Tmax %g for %v", et, tmax, k)
	}
	// Optimality of the total: no allocation with one fewer processor
	// meets the target (verified via Program (4) at that budget).
	smaller, err := m.AssignProcessors(sum(k) - 1)
	if err == nil {
		if est, _ := m.ExpectedSojourn(smaller); est <= tmax {
			t.Errorf("budget %d already meets target (E=%g); MinProcessors not minimal", sum(k)-1, est)
		}
	}
}

func TestMinProcessorsUnreachable(t *testing.T) {
	m := vldLikeModel(t)
	if _, err := m.MinProcessors(m.LowerBound() * 0.99); !errors.Is(err, ErrUnreachableTarget) {
		t.Errorf("err = %v, want ErrUnreachableTarget", err)
	}
	if _, err := m.MinProcessors(-1); err == nil {
		t.Error("negative tmax must error")
	}
}

func TestMinProcessorsPropertyMinimal(t *testing.T) {
	f := func(seed uint32) bool {
		rng := stats.NewRNG(uint64(seed))
		lambda0 := 1 + rng.Float64()*30
		ops := []OpRates{
			{Lambda: lambda0, Mu: 0.3 + rng.Float64()*4},
			{Lambda: lambda0 * (0.5 + rng.Float64()*3), Mu: 0.5 + rng.Float64()*20},
		}
		m, err := NewModel(lambda0, ops)
		if err != nil {
			return false
		}
		tmax := m.LowerBound() * (1.2 + rng.Float64()*3)
		k, err := m.MinProcessors(tmax)
		if err != nil {
			return false
		}
		et, err := m.ExpectedSojourn(k)
		if err != nil || et > tmax {
			return false
		}
		// Removing one processor from any operator must break either
		// the target or stability.
		for i := range k {
			k[i]--
			if k[i] > 0 {
				if et2, _ := m.ExpectedSojourn(k); et2 <= tmax {
					return false
				}
			}
			k[i]++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestOperatorSojournConsistentWithQueueing(t *testing.T) {
	m := vldLikeModel(t)
	got := m.OperatorSojourn(0, 10)
	want := queueing.ExpectedSojourn(13, 1.5, 10)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("OperatorSojourn = %g, want %g", got, want)
	}
}

// TestMaxScaleInvertsProgram6 is the contract of the demand search on
// random networks: MaxScale's s* is feasible and tight —
// need(s*) ≤ budget < need(s*·(1+1e-6)) — s* grows with the budget, every
// probe scales the base afresh (the base is untouched and a repeated
// search returns the same bits), and Scale is the linear map it claims.
func TestMaxScaleInvertsProgram6(t *testing.T) {
	rng := stats.NewRNG(41)
	searches := 0
	for trial := 0; trial < 100; trial++ {
		ops := make([]OpRates, 1+rng.IntN(4))
		sumService := 0.0
		for i := range ops {
			ops[i] = OpRates{Lambda: 0.5 + rng.Float64()*10, Mu: 1 + rng.Float64()*5}
			rng.Float64() // unused draw: keeps seed 41's trial sequence
			sumService += ops[i].Lambda / ops[i].Mu
		}
		lambda0 := 0.5 + rng.Float64()*3
		base := mustModel(t, lambda0, ops)
		tmax := sumService / lambda0 * (1.05 + rng.Float64())
		const hi = 8.0
		var probe Model
		needHi, err := probe.NeedAt(base, hi, tmax)
		if err != nil {
			t.Fatal(err)
		}
		if probe.Lambda0() != lambda0*hi || probe.Ops()[0].Lambda != ops[0].Lambda*hi || probe.Ops()[0].Mu != ops[0].Mu {
			t.Fatalf("trial %d: Scale(%g) is not λ0·s, λ_i·s, µ_i", trial, hi)
		}
		_, minTotal, err := base.MinAllocation()
		if err != nil {
			t.Fatal(err)
		}
		prev := 0.0
		for budget := minTotal + 1; budget < needHi; budget += 1 + (needHi-minTotal)/5 {
			s := probe.MaxScale(base, tmax, budget, hi)
			if n, err := probe.NeedAt(base, s, tmax); err != nil || n > budget {
				t.Fatalf("trial %d budget %d: need(s*=%g) = %d, %v — not feasible", trial, budget, s, n, err)
			}
			if n, err := probe.NeedAt(base, s*(1+1e-6), tmax); err == nil && n <= budget {
				t.Fatalf("trial %d budget %d: need(s*·(1+1e-6)) = %d still fits — s*=%g is not the largest", trial, budget, n, s)
			}
			if s < prev {
				t.Fatalf("trial %d: s* fell %g -> %g as the budget grew to %d", trial, prev, s, budget)
			}
			if again := probe.MaxScale(base, tmax, budget, hi); again != s {
				t.Fatalf("trial %d budget %d: repeated search moved %g -> %g", trial, budget, s, again)
			}
			prev = s
			searches++
		}
		if base.Lambda0() != lambda0 || base.Ops()[0].Lambda != ops[0].Lambda {
			t.Fatalf("trial %d: the search mutated its base", trial)
		}
	}
	if searches < 300 {
		t.Fatalf("only %d searches ran; the generator no longer exercises the property", searches)
	}
}

// TestViolates pins the one "missing the target" judgment both the
// controller and the supervisor's tenant bid use.
func TestViolates(t *testing.T) {
	m := vldLikeModel(t)
	k, err := m.AssignProcessors(22)
	if err != nil {
		t.Fatal(err)
	}
	est, _ := m.ExpectedSojourn(k)
	for _, c := range []struct {
		name           string
		alloc          []int
		measured, tmax float64
		want           bool
	}{
		{"within target", k, est, est * 1.1, false},
		{"measured above", k, est * 1.2, est * 1.1, true},
		{"model above, measurement not", k, 0, est * 0.9, true},
		{"no target", k, 1e9, 0, false},
		{"unpriceable alloc, measured below", k[:1], est, est * 1.1, false},
		{"unpriceable alloc, measured above", k[:1], est * 1.2, est * 1.1, true},
	} {
		if got := m.Violates(c.alloc, c.measured, c.tmax); got != c.want {
			t.Errorf("%s: Violates = %v, want %v", c.name, got, c.want)
		}
	}
}
