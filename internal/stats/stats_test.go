package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uniform(0, 1) != b.Uniform(0, 1) {
			t.Fatal("same seed must produce identical streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uniform(0, 1) != c.Uniform(0, 1) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s1 := r.Split(1)
	r2 := NewRNG(7)
	s2 := r2.Split(1)
	for i := 0; i < 50; i++ {
		if s1.Uniform(0, 1) != s2.Uniform(0, 1) {
			t.Fatal("Split must be deterministic given seed and id")
		}
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(1)
	const rate = 2.5
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Exp(rate))
	}
	if got, want := s.Mean(), 1/rate; math.Abs(got-want) > 0.01*want {
		t.Errorf("Exp mean = %g, want ~%g", got, want)
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(2)
	for _, mean := range []float64{0.5, 4, 12, 50} { // spans Knuth and normal-approx branches
		var s Summary
		for i := 0; i < 100000; i++ {
			s.Add(float64(r.Poisson(mean)))
		}
		if math.Abs(s.Mean()-mean) > 0.03*mean+0.02 {
			t.Errorf("Poisson(%g) sample mean = %g", mean, s.Mean())
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("Uniform(3,7) = %g out of range", v)
		}
	}
}

func TestDistMeans(t *testing.T) {
	r := NewRNG(4)
	dists := []Dist{
		Exponential{Rate: 4},
		Uniform{Lo: 1, Hi: 25},
		LogNormal{Mu: -1, Sigma: 0.5},
	}
	for _, d := range dists {
		var s Summary
		for i := 0; i < 150000; i++ {
			s.Add(d.Sample(r))
		}
		want := d.Mean()
		if math.Abs(s.Mean()-want) > 0.02*want+1e-9 {
			t.Errorf("%s: sample mean %g, analytic mean %g", d, s.Mean(), want)
		}
	}
}

func TestSummaryMatchesDirectComputation(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3.5}
	var s Summary
	for _, x := range xs {
		s.Add(x)
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	varr := 0.0
	for _, x := range xs {
		varr += (x - mean) * (x - mean)
	}
	varr /= float64(len(xs) - 1)
	if math.Abs(s.Mean()-mean) > 1e-12 {
		t.Errorf("mean %g, want %g", s.Mean(), mean)
	}
	if math.Abs(s.Var()-varr) > 1e-12 {
		t.Errorf("var %g, want %g", s.Var(), varr)
	}
}

func TestSummaryReset(t *testing.T) {
	var s Summary
	s.Add(5)
	s.Reset()
	if s.Count() != 0 || s.Mean() != 0 {
		t.Error("Reset did not clear the summary")
	}
}

func TestSampleQuantiles(t *testing.T) {
	var p Sample
	for i := 1; i <= 100; i++ {
		p.Add(float64(i))
	}
	tests := []struct{ q, want float64 }{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.25, 25.75}, {0.99, 99.01},
	}
	for _, tt := range tests {
		if got := p.Quantile(tt.q); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", tt.q, got, tt.want)
		}
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect line: r = %g, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(xs, neg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("anti-correlated: r = %g, want -1", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("single point should error")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("zero variance should error")
	}
}

func TestSpearmanMonotoneNonlinear(t *testing.T) {
	// Monotone but nonlinear relation: Spearman is exactly 1.
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x)
	}
	r, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("Spearman = %g, want 1", r)
	}
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{1, 2, 2, 3}
	r, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("Spearman with ties = %g, want 1", r)
	}
}

func TestParetoMeanAndTail(t *testing.T) {
	p, err := NewParetoWithMean(0.5, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Mean(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("pinned mean %g, want 0.5", got)
	}
	r := NewRNG(7)
	var sum, max float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := p.Sample(r)
		if v < p.Scale {
			t.Fatalf("sample %g below the scale %g", v, p.Scale)
		}
		sum += v
		if v > max {
			max = v
		}
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.05 {
		t.Errorf("empirical mean %g, want ≈ 0.5", mean)
	}
	// Heavy tail: the largest of 200k draws is far beyond an exponential's
	// reach (Exp(2) caps out around ln(200000)/2 ≈ 6).
	if max < 10*0.5 {
		t.Errorf("max sample %g shows no heavy tail", max)
	}
	if (Pareto{Scale: 1, Alpha: 1}).Mean() != math.Inf(1) {
		t.Error("alpha ≤ 1 must report an infinite mean")
	}
	if _, err := NewParetoWithMean(0.5, 1); err == nil {
		t.Error("alpha = 1 must be rejected (no finite mean)")
	}
	if _, err := NewParetoWithMean(math.Inf(1), 2); err == nil {
		t.Error("infinite mean must be rejected")
	}
}
