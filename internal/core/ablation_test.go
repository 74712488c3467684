package core

import (
	"math"
	"testing"

	"github.com/drs-repro/drs/internal/queueing"
	"github.com/drs-repro/drs/internal/stats"
)

func TestAblationScanExportedWrapper(t *testing.T) {
	m := vldLikeModel(t)
	k, err := AssignProcessorsScan(m, 22)
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.AssignProcessors(22)
	if err != nil {
		t.Fatal(err)
	}
	et1, _ := m.ExpectedSojourn(k)
	et2, _ := m.ExpectedSojourn(h)
	if math.Abs(et1-et2) > 1e-12 {
		t.Errorf("scan and heap disagree: %v vs %v", k, h)
	}
}

func TestAblationBruteForceExportedWrapper(t *testing.T) {
	m := mustModel(t, 5, []OpRates{
		{Lambda: 5, Mu: 2}, {Lambda: 10, Mu: 4},
	})
	k, et, err := BruteForceAssign(m, 10)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := m.AssignProcessors(10)
	if err != nil {
		t.Fatal(err)
	}
	etG, _ := m.ExpectedSojourn(greedy)
	if math.Abs(et-etG) > 1e-12 {
		t.Errorf("brute force %v (%g) vs greedy %v (%g)", k, et, greedy, etG)
	}
}

// TestAblationNaiveModelNeverBeatsErlang compares allocations produced by
// the naive M/M/1-pooling model against Algorithm 1's, both judged by the
// true M/M/k objective: the naive model must never win, and must lose on
// at least some instances — the design-choice justification for carrying
// the full Erlang formula.
func TestAblationNaiveModelNeverBeatsErlang(t *testing.T) {
	rng := stats.NewRNG(20150423) // the paper's arXiv v3 date
	losses := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.IntN(4)
		ops := make([]OpRates, n)
		for i := range ops {
			ops[i] = OpRates{Lambda: 1 + rng.Float64()*150, Mu: 0.5 + rng.Float64()*30}
		}
		m, err := NewModel(1+rng.Float64()*20, ops)
		if err != nil {
			t.Fatal(err)
		}
		_, minTotal, err := m.MinAllocation()
		if err != nil {
			t.Fatal(err)
		}
		kmax := minTotal + 1 + rng.IntN(20)
		erlang, err := m.AssignProcessors(kmax)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveAssignProcessors(m, kmax)
		if err != nil {
			t.Fatal(err)
		}
		etErlang, _ := m.ExpectedSojourn(erlang)
		etNaive, _ := m.ExpectedSojourn(naive)
		if etNaive < etErlang*(1-1e-9) {
			t.Fatalf("trial %d: naive model beat Algorithm 1 (%g < %g) — impossible by Theorem 1",
				trial, etNaive, etErlang)
		}
		if etNaive > etErlang*(1+1e-9) {
			losses++
		}
	}
	if losses == 0 {
		t.Error("naive model never lost; ablation shows no benefit from the Erlang model")
	}
	t.Logf("naive M/M/1 model produced a worse allocation in %d/200 instances", losses)
}

// TestModelIsEquationOne: every operator is an M/M/k station, so the
// model's per-operator sojourn is Equation (1) and its network sojourn is
// Equation (3)'s λ-weighted sum of them, bit for bit.
func TestModelIsEquationOne(t *testing.T) {
	m := vldLikeModel(t)
	for _, alloc := range [][]int{{10, 11, 1}, {9, 12, 1}, {12, 9, 1}} {
		want := 0.0
		for i, op := range m.Ops() {
			ti := queueing.ExpectedSojourn(op.Lambda, op.Mu, alloc[i])
			if got := m.OperatorSojourn(i, alloc[i]); got != ti {
				t.Errorf("alloc %v op %s: OperatorSojourn %g != Equation (1) %g", alloc, op.Name, got, ti)
			}
			want += op.Lambda * ti
		}
		want /= m.Lambda0()
		if got, _ := m.ExpectedSojourn(alloc); got != want {
			t.Errorf("alloc %v: ExpectedSojourn %g != Equation (3) %g", alloc, got, want)
		}
	}
}
