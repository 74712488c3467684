package queueing

import (
	"math"
	"testing"
)

func TestSojournTailBoundaries(t *testing.T) {
	lambda, mu, k := 20.0, 3.0, 10
	if got := SojournTail(lambda, mu, k, 0); !almostEqual(got, 1, 1e-12) {
		t.Errorf("P(T>0) = %g, want 1", got)
	}
	if got := SojournTail(lambda, mu, k, 1e6); got > 1e-12 {
		t.Errorf("P(T>huge) = %g, want ~0", got)
	}
	prev := 1.0
	for _, tt := range []float64{0.01, 0.1, 0.3, 1, 3} {
		cur := SojournTail(lambda, mu, k, tt)
		if cur > prev {
			t.Errorf("tail not decreasing at t=%g: %g > %g", tt, cur, prev)
		}
		if cur < 0 || cur > 1 {
			t.Errorf("tail out of [0,1] at t=%g: %g", tt, cur)
		}
		prev = cur
	}
}

func TestSojournTailMM1ClosedForm(t *testing.T) {
	// M/M/1 FCFS: T ~ Exp(mu - lambda) exactly.
	lambda, mu := 3.0, 5.0
	for _, tt := range []float64{0.1, 0.5, 1, 2} {
		want := math.Exp(-(mu - lambda) * tt)
		if got := SojournTail(lambda, mu, 1, tt); !almostEqual(got, want, 1e-9) {
			t.Errorf("M/M/1 P(T>%g) = %g, want %g", tt, got, want)
		}
	}
}

func TestSojournTailIntegratesToMean(t *testing.T) {
	// E[T] = ∫0^∞ P(T>t) dt must reproduce Equation (1).
	cases := []struct {
		lambda, mu float64
		k          int
	}{
		{8, 10, 1}, {20, 3, 8}, {20, 3, 10}, {650, 68, 11},
		{9, 5, 2}, // θ = kµ−λ = 1 vs µ = 5
	}
	for _, c := range cases {
		want := ExpectedSojourn(c.lambda, c.mu, c.k)
		// Trapezoidal integration out to where the tail is negligible.
		h := want / 4000
		sum := 0.0
		for i := 0; ; i++ {
			t0 := float64(i) * h
			v := SojournTail(c.lambda, c.mu, c.k, t0)
			if v < 1e-10 && i > 10 {
				break
			}
			if i == 0 {
				sum += v / 2
			} else {
				sum += v
			}
			if i > 4_000_000 {
				t.Fatalf("integration did not converge for %+v", c)
			}
		}
		got := sum * h
		if math.Abs(got-want) > 0.002*want {
			t.Errorf("lambda=%g mu=%g k=%d: ∫tail = %g, E[T] = %g", c.lambda, c.mu, c.k, got, want)
		}
	}
}

func TestSojournTailDegenerateTheta(t *testing.T) {
	// Construct θ = µ exactly: kµ − λ = µ, e.g. k=2, µ=4, λ=4.
	lambda, mu, k := 4.0, 4.0, 2
	if got := SojournTail(lambda, mu, k, 0); !almostEqual(got, 1, 1e-12) {
		t.Errorf("degenerate P(T>0) = %g", got)
	}
	// Mean via integration still matches Equation (1).
	want := ExpectedSojourn(lambda, mu, k)
	h := want / 4000
	sum := SojournTail(lambda, mu, k, 0) / 2
	for i := 1; float64(i)*h < want*30; i++ {
		sum += SojournTail(lambda, mu, k, float64(i)*h)
	}
	got := sum * h
	if math.Abs(got-want) > 0.005*want {
		t.Errorf("degenerate mean %g, want %g", got, want)
	}
}

func TestSojournTailEdgeCases(t *testing.T) {
	if got := SojournTail(10, 3, 3, 1); got != 1 {
		t.Errorf("unstable tail = %g, want 1", got)
	}
	if got := SojournTail(0, 3, 2, 0.5); !almostEqual(got, math.Exp(-1.5), 1e-12) {
		t.Errorf("no-arrivals tail = %g, want pure service", got)
	}
	if got := SojournTail(-1, 3, 2, 1); !math.IsNaN(got) {
		t.Errorf("invalid input tail = %g, want NaN", got)
	}
	if got := SojournTail(1, 3, 2, -1); !math.IsNaN(got) {
		t.Errorf("negative t tail = %g, want NaN", got)
	}
}

func TestSojournQuantileInvertsTail(t *testing.T) {
	lambda, mu, k := 20.0, 3.0, 9
	for _, q := range []float64{0.5, 0.9, 0.99} {
		tq := SojournQuantile(lambda, mu, k, q)
		if got := SojournTail(lambda, mu, k, tq); math.Abs(got-(1-q)) > 1e-6 {
			t.Errorf("P(T > quantile(%g)) = %g, want %g", q, got, 1-q)
		}
	}
	if got := SojournQuantile(10, 3, 3, 0.9); !math.IsInf(got, 1) {
		t.Errorf("unstable quantile = %g, want +Inf", got)
	}
	if got := SojournQuantile(1, 2, 1, 0); !math.IsNaN(got) {
		t.Errorf("q=0 quantile = %g, want NaN", got)
	}
	if got := SojournQuantile(1, 2, 1, 1); !math.IsNaN(got) {
		t.Errorf("q=1 quantile = %g, want NaN", got)
	}
}

func TestMinServersForQuantile(t *testing.T) {
	// The bare Exp(3) service's 95th percentile is ~0.999s, so any
	// reachable target must exceed that floor.
	lambda, mu, q := 20.0, 3.0, 0.95
	target := 1.2
	k, err := MinServersForQuantile(lambda, mu, target, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := SojournQuantile(lambda, mu, k, q); got > target {
		t.Errorf("k=%d gives 95th percentile %g > target %g", k, got, target)
	}
	if k > 1 {
		if got := SojournQuantile(lambda, mu, k-1, q); got <= target {
			t.Errorf("k-1 already meets target (%g); not minimal", got)
		}
	}
	// The quantile constraint needs at least as many servers as the mean
	// constraint at the same threshold.
	kMean, err := MinStableServers(lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	for ExpectedSojourn(lambda, mu, kMean) > target {
		kMean++
	}
	if k < kMean {
		t.Errorf("quantile servers %d < mean servers %d", k, kMean)
	}
	if _, err := MinServersForQuantile(lambda, mu, 0.001, q); err == nil {
		t.Error("unreachable quantile target should error")
	}
	if _, err := MinServersForQuantile(lambda, mu, 1, 2); err == nil {
		t.Error("bad quantile should error")
	}
	if _, err := MinServersForQuantile(1, 0, 1, 0.9); err == nil {
		t.Error("bad rates should error")
	}
}
