package fpd

import (
	"math"
	"testing"

	"github.com/drs-repro/drs/internal/sim"
)

func TestModelReproducesPaperAllocation(t *testing.T) {
	m, err := Model()
	if err != nil {
		t.Fatal(err)
	}
	k22, err := m.AssignProcessors(22)
	if err != nil {
		t.Fatal(err)
	}
	if want := RecommendedAllocation(); !equal(k22, want) {
		t.Errorf("AssignProcessors(22) = %v, want %v (paper Fig. 6)", k22, want)
	}
	est, err := m.ExpectedSojourn(k22)
	if err != nil {
		t.Fatal(err)
	}
	// Paper's estimate is ~15.5ms; ours must be the same order.
	if est < 0.010 || est > 0.030 {
		t.Errorf("estimated E[T] = %.4fs, want 10-30ms", est)
	}
}

func TestLoopResolvedByTrafficEquations(t *testing.T) {
	m, err := Model()
	if err != nil {
		t.Fatal(err)
	}
	rates := m.Rates()
	wantDetect := EventsPerSecond * CandidatesPerEvent / (1 - LoopGain)
	if math.Abs(rates[1].Lambda-wantDetect) > 1e-6 {
		t.Errorf("detector lambda = %g, want %g", rates[1].Lambda, wantDetect)
	}
}

func TestFigure6AllocationsAllStable(t *testing.T) {
	m, err := Model()
	if err != nil {
		t.Fatal(err)
	}
	recommended, bestET := -1, math.Inf(1)
	for i, alloc := range Figure6Allocations() {
		et, err := m.ExpectedSojourn(alloc)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(et, 1) {
			t.Errorf("allocation %v unstable", alloc)
		}
		if et < bestET {
			recommended, bestET = i, et
		}
	}
	if !equal(Figure6Allocations()[recommended], RecommendedAllocation()) {
		t.Errorf("model prefers %v over the starred allocation", Figure6Allocations()[recommended])
	}
}

func TestSimShowsNetworkDominatedGap(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	m, err := Model()
	if err != nil {
		t.Fatal(err)
	}
	alloc := RecommendedAllocation()
	est, err := m.ExpectedSojourn(alloc)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := SimConfig(alloc, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWarmup(20)
	s.RunUntil(220)
	got := s.CompletedStats().Mean()
	// The paper's FPD story: measured far above the estimate because the
	// network dominates (their ratio ~8x; ours ~4-8x by construction).
	if got < 3*est {
		t.Errorf("measured %.4fs not network-dominated vs estimate %.4fs", got, est)
	}
	if got > 15*est {
		t.Errorf("measured %.4fs implausibly far above estimate %.4fs", got, est)
	}
}

func TestSimConfigValidation(t *testing.T) {
	if _, err := SimConfig([]int{1}, 1); err == nil {
		t.Error("short allocation should error")
	}
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
