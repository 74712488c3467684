package topology

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// buildVLDChain is the paper's Figure 4 shape: spout feeds a chain
// extractor -> matcher -> aggregator with fan-out selectivity at the
// extractor (features per frame) and fan-in at the aggregator.
func buildVLDChain(t *testing.T) *Topology {
	t.Helper()
	topo, err := NewBuilder().
		AddOperator("extract", 1.5, 13).
		AddOperator("match", 65, 0).
		AddOperator("aggregate", 600, 0).
		Connect("extract", "match", 50).
		Connect("match", "aggregate", 0.2).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestChainArrivalRates(t *testing.T) {
	topo := buildVLDChain(t)
	lam, err := topo.ArrivalRates()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{13, 13 * 50, 13 * 50 * 0.2}
	for i := range want {
		if !almostEqual(lam[i], want[i]) {
			t.Errorf("lambda[%d] = %g, want %g", i, lam[i], want[i])
		}
	}
	if got := topo.ExternalRate(); !almostEqual(got, 13) {
		t.Errorf("lambda0 = %g, want 13", got)
	}
}

func TestSplitJoinRates(t *testing.T) {
	// Figure 2 without the loop: A splits to B and C; C and D join at E.
	topo, err := NewBuilder().
		AddOperator("A", 10, 5).
		AddOperator("B", 10, 0).
		AddOperator("C", 10, 0).
		AddOperator("D", 10, 2).
		AddOperator("E", 10, 0).
		Connect("A", "B", 0.7).
		Connect("A", "C", 0.3).
		Connect("C", "E", 1).
		Connect("D", "E", 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	lam, err := topo.ArrivalRates()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"A": 5, "B": 3.5, "C": 1.5, "D": 2, "E": 3.5}
	for name, w := range want {
		i := indexOf(t, topo, name)
		if !almostEqual(lam[i], w) {
			t.Errorf("lambda[%s] = %g, want %g", name, lam[i], w)
		}
	}
}

func TestLoopRatesGeometric(t *testing.T) {
	// A -> A with gain g: lambda_A = ext / (1 - g).
	const g = 0.4
	topo, err := NewBuilder().
		AddOperator("A", 100, 6).
		Connect("A", "A", g).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	lam, err := topo.ArrivalRates()
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 / (1 - g); !almostEqual(lam[0], want) {
		t.Errorf("self-loop lambda = %g, want %g", lam[0], want)
	}
}

func TestFigure2FullTopologyWithLoop(t *testing.T) {
	// The paper's Figure 2: split A->{B,C}, join {C,D}->E, loop E->A.
	topo, err := NewBuilder().
		AddOperator("A", 50, 10).
		AddOperator("B", 50, 0).
		AddOperator("C", 50, 0).
		AddOperator("D", 50, 4).
		AddOperator("E", 50, 0).
		Connect("A", "B", 0.6).
		Connect("A", "C", 0.4).
		Connect("C", "E", 1).
		Connect("D", "E", 1).
		Connect("E", "A", 0.5).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	lam, err := topo.ArrivalRates()
	if err != nil {
		t.Fatal(err)
	}
	// Solve by hand: lA = 10 + 0.5*lE; lC = 0.4*lA; lE = lC + 4.
	// lE = 0.4*lA + 4; lA = 10 + 0.2*lA + 2 => lA = 15; lE = 10; lB = 9; lC = 6.
	want := map[string]float64{"A": 15, "B": 9, "C": 6, "D": 4, "E": 10}
	for name, w := range want {
		i := indexOf(t, topo, name)
		if !almostEqual(lam[i], w) {
			t.Errorf("lambda[%s] = %g, want %g", name, lam[i], w)
		}
	}
}

func TestInfeasibleLoop(t *testing.T) {
	_, err := NewBuilder().
		AddOperator("A", 10, 1).
		Connect("A", "A", 1.0). // gain exactly 1: tuples never drain
		Build()
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("loop gain 1 should be ErrInfeasible, got %v", err)
	}
	_, err = NewBuilder().
		AddOperator("A", 10, 1).
		AddOperator("B", 10, 0).
		Connect("A", "B", 2).
		Connect("B", "A", 0.6). // cycle gain 1.2
		Build()
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("cycle gain > 1 should be ErrInfeasible, got %v", err)
	}
}

func TestFeasibleTwoOperatorLoop(t *testing.T) {
	topo, err := NewBuilder().
		AddOperator("A", 10, 1).
		AddOperator("B", 10, 0).
		Connect("A", "B", 2).
		Connect("B", "A", 0.25). // cycle gain 0.5
		Build()
	if err != nil {
		t.Fatal(err)
	}
	lam, err := topo.ArrivalRates()
	if err != nil {
		t.Fatal(err)
	}
	// lA = 1 + 0.25 lB, lB = 2 lA => lA = 1/(1-0.5) = 2, lB = 4.
	if !almostEqual(lam[0], 2) || !almostEqual(lam[1], 4) {
		t.Errorf("rates = %v, want [2 4]", lam)
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name  string
		build func() (*Topology, error)
	}{
		{"empty name", func() (*Topology, error) {
			return NewBuilder().AddOperator("", 1, 1).Build()
		}},
		{"duplicate operator", func() (*Topology, error) {
			return NewBuilder().AddOperator("A", 1, 1).AddOperator("A", 1, 0).Build()
		}},
		{"bad service rate", func() (*Topology, error) {
			return NewBuilder().AddOperator("A", 0, 1).Build()
		}},
		{"negative external", func() (*Topology, error) {
			return NewBuilder().AddOperator("A", 1, -1).Build()
		}},
		{"unknown edge source", func() (*Topology, error) {
			return NewBuilder().AddOperator("A", 1, 1).Connect("X", "A", 1).Build()
		}},
		{"unknown edge target", func() (*Topology, error) {
			return NewBuilder().AddOperator("A", 1, 1).Connect("A", "X", 1).Build()
		}},
		{"bad selectivity", func() (*Topology, error) {
			return NewBuilder().AddOperator("A", 1, 1).Connect("A", "A", 0).Build()
		}},
		{"no operators", func() (*Topology, error) {
			return NewBuilder().Build()
		}},
		{"no external arrivals", func() (*Topology, error) {
			return NewBuilder().AddOperator("A", 1, 0).Build()
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.build(); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestBuilderAccumulatesMultipleErrors(t *testing.T) {
	_, err := NewBuilder().
		AddOperator("", 1, 1).
		AddOperator("A", -1, 0).
		Connect("A", "Z", 1).
		Build()
	if err == nil {
		t.Fatal("want error")
	}
}

func TestAccessors(t *testing.T) {
	topo := buildVLDChain(t)
	if topo.N() != 3 {
		t.Fatalf("N = %d, want 3", topo.N())
	}
	i := indexOf(t, topo, "match")
	if op := topo.Operator(i); op.Name != "match" || op.ServiceRate != 65 {
		t.Errorf("Operator(%d) = %+v", i, op)
	}
}

// indexOf finds the named operator's index through the exported accessors.
func indexOf(t *testing.T, topo *Topology, name string) int {
	t.Helper()
	for i := 0; i < topo.N(); i++ {
		if topo.Operator(i).Name == name {
			return i
		}
	}
	t.Fatalf("no operator %q", name)
	return -1
}

func TestTrafficEquationsSubstitutionProperty(t *testing.T) {
	// Property: for random feed-forward topologies with random back edges
	// of small gain, the solved rates must satisfy the traffic equations
	// lambda_i = ext_i + sum_j lambda_j * S(j->i) by direct substitution.
	f := func(nSeed, edgeSeed, extSeed uint16) bool {
		n := 2 + int(nSeed%6)
		b := NewBuilder()
		for i := 0; i < n; i++ {
			ext := 0.0
			if i == 0 || (extSeed>>uint(i))&1 == 1 {
				ext = 1 + float64((extSeed>>uint(i))%7)
			}
			b.AddOperator(opName(i), 1+float64(i), ext)
		}
		// Forward edges with selectivity up to 2; a weak back edge.
		for i := 0; i+1 < n; i++ {
			sel := 0.25 + float64((edgeSeed>>uint(i))%8)/4
			b.Connect(opName(i), opName(i+1), sel)
		}
		if edgeSeed%3 == 0 && n > 2 {
			b.Connect(opName(n-1), opName(0), 0.2)
		}
		topo, err := b.Build()
		if err != nil {
			// Cycles with gain >= 1 are legitimately rejected.
			return errorsIs(err, ErrInfeasible)
		}
		lam, err := topo.ArrivalRates()
		if err != nil {
			return false
		}
		// Substitute back.
		for i := 0; i < topo.N(); i++ {
			want := topo.Operator(i).ExternalRate
			for _, e := range topo.edges {
				if e.To == i {
					want += lam[e.From] * e.Selectivity
				}
			}
			if math.Abs(lam[i]-want) > 1e-6*(1+want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func opName(i int) string { return string(rune('A' + i)) }

func errorsIs(err, target error) bool { return errors.Is(err, target) }
