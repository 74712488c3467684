package vld

import (
	"math"
	"testing"

	"github.com/drs-repro/drs/internal/sim"
)

func TestModelReproducesPaperAllocations(t *testing.T) {
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
	k17, err := m.AssignProcessors(17)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{8, 8, 1}; !equal(k17, want) { // Fig. 10 initial state
		t.Errorf("AssignProcessors(17) = %v, want %v (paper Fig. 10)", k17, want)
	}
}

func TestRecommendedIsBestOfFigure6(t *testing.T) {
	m, err := Model()
	if err != nil {
		t.Fatal(err)
	}
	best, bestET := -1, math.Inf(1)
	for i, alloc := range Figure6Allocations() {
		et, err := m.ExpectedSojourn(alloc)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(et, 1) {
			t.Errorf("Fig. 6 allocation %v unstable under the profile", alloc)
		}
		if et < bestET {
			best, bestET = i, et
		}
	}
	if !equal(Figure6Allocations()[best], RecommendedAllocation()) {
		t.Errorf("model prefers %v over the starred allocation", Figure6Allocations()[best])
	}
}

func TestSimTracksModelEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too long for -short")
	}
	m, err := Model()
	if err != nil {
		t.Fatal(err)
	}
	alloc := RecommendedAllocation()
	want, err := m.ExpectedSojourn(alloc)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := SimConfig(alloc, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWarmup(60)
	s.RunUntil(600) // a 10-minute experiment, as in Fig. 6
	got := s.CompletedStats().Mean()
	// The simulation uses lognormal services, modulated arrivals and
	// network delay, so it must sit somewhat ABOVE the M/M/k estimate but
	// in its neighborhood (the paper's "slight underestimation" for VLD).
	if got < want {
		t.Errorf("measured %0.3fs below model %0.3fs: network should add latency", got, want)
	}
	if got > want*1.8 {
		t.Errorf("measured %0.3fs too far above model %0.3fs", got, want)
	}
}

func TestSimConfigValidation(t *testing.T) {
	if _, err := SimConfig([]int{1, 2}, 1); err == nil {
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
