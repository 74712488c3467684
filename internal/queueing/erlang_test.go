package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestErlangBKnownValues(t *testing.T) {
	tests := []struct {
		name string
		k    int
		a    float64
		want float64
	}{
		{"zero servers blocks all", 0, 5, 1},
		{"one server", 1, 1, 0.5},             // B(1,a) = a/(1+a)
		{"one server load 3", 1, 3, 0.75},     // 3/4
		{"two servers load 1", 2, 1, 1.0 / 5}, // B(2,1) = (1*0.5)/(2+0.5) = 0.2
		{"zero load", 4, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ErlangB(tt.k, tt.a); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("ErlangB(%d, %g) = %g, want %g", tt.k, tt.a, got, tt.want)
			}
		})
	}
}

func TestErlangBMatchesFactorialForm(t *testing.T) {
	// B(k, a) = (a^k/k!) / Σ_{l=0}^{k} a^l/l!
	for _, a := range []float64{0.3, 1, 2.5, 7, 19.5} {
		for k := 1; k <= 30; k++ {
			term, sum := 1.0, 1.0
			for l := 1; l <= k; l++ {
				term *= a / float64(l)
				sum += term
			}
			want := term / sum
			if got := ErlangB(k, a); !almostEqual(got, want, 1e-10) {
				t.Fatalf("ErlangB(%d, %g) = %g, want %g", k, a, got, want)
			}
		}
	}
}

func TestErlangCBounds(t *testing.T) {
	for _, a := range []float64{0.5, 2, 9.7, 100} {
		for k := int(a) + 1; k < int(a)+20; k++ {
			b := ErlangB(k, a)
			c := ErlangC(k, a)
			if c < b {
				t.Errorf("C(%d,%g)=%g < B=%g; Erlang C must dominate B", k, a, c, b)
			}
			if c < 0 || c > 1 {
				t.Errorf("C(%d,%g)=%g out of [0,1]", k, a, c)
			}
		}
	}
}

func TestErlangCUnstableIsOne(t *testing.T) {
	if got := ErlangC(3, 3.0); got != 1 {
		t.Errorf("C(3, 3) = %g, want 1 (k <= a)", got)
	}
	if got := ErlangC(2, 5); got != 1 {
		t.Errorf("C(2, 5) = %g, want 1", got)
	}
}

func TestExpectedSojournMM1ClosedForm(t *testing.T) {
	// For k=1, E[T] = 1/(mu - lambda).
	tests := []struct{ lambda, mu float64 }{
		{1, 2}, {0.5, 1}, {9, 10}, {99, 100},
	}
	for _, tt := range tests {
		want := 1 / (tt.mu - tt.lambda)
		if got := ExpectedSojourn(tt.lambda, tt.mu, 1); !almostEqual(got, want, 1e-10) {
			t.Errorf("ExpectedSojourn(%g, %g, 1) = %g, want %g", tt.lambda, tt.mu, got, want)
		}
	}
}

func TestExpectedSojournMatchesPaperFormula(t *testing.T) {
	// The stable recurrence form must agree with Equation (1) evaluated
	// literally via P0 and factorials.
	for _, lambda := range []float64{0.5, 3, 13, 320, 650} {
		for _, mu := range []float64{0.7, 1.45, 65, 172} {
			if lambda/mu > 200 {
				// The factorial form overflows float64 at large offered
				// load; that regime is exactly what the recurrence fixes.
				continue
			}
			minK, err := MinStableServers(lambda, mu)
			if err != nil {
				t.Fatal(err)
			}
			for k := minK; k < minK+12; k++ {
				want := expectedSojournDirect(lambda, mu, k)
				got := ExpectedSojourn(lambda, mu, k)
				if !almostEqual(got, want, 1e-8) {
					t.Fatalf("lambda=%g mu=%g k=%d: recurrence %g != Eq.(1) %g", lambda, mu, k, got, want)
				}
			}
		}
	}
}

func TestExpectedSojournUnstable(t *testing.T) {
	tests := []struct {
		name       string
		lambda, mu float64
		k          int
	}{
		{"k below load", 10, 3, 3},
		{"k exactly load", 9, 3, 3}, // Eq. (1): infinite at k = lambda/mu too
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ExpectedSojourn(tt.lambda, tt.mu, tt.k); !math.IsInf(got, 1) {
				t.Errorf("ExpectedSojourn(%g, %g, %d) = %g, want +Inf", tt.lambda, tt.mu, tt.k, got)
			}
		})
	}
}

func TestExpectedSojournInvalidInputs(t *testing.T) {
	for _, tt := range []struct {
		name       string
		lambda, mu float64
	}{
		{"negative lambda", -1, 2},
		{"zero mu", 1, 0},
		{"negative mu", 1, -2},
		{"NaN lambda", math.NaN(), 1},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if got := ExpectedSojourn(tt.lambda, tt.mu, 2); !math.IsNaN(got) {
				t.Errorf("got %g, want NaN", got)
			}
		})
	}
}

func TestExpectedSojournZeroArrivals(t *testing.T) {
	// No arrivals: no queueing, sojourn is the bare service time.
	if got, want := ExpectedSojourn(0, 4, 2), 0.25; !almostEqual(got, want, 1e-12) {
		t.Errorf("got %g, want %g", got, want)
	}
}

func TestP0ClosedForms(t *testing.T) {
	// M/M/1: p0 = 1 - rho.
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		got, err := P0(rho, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, 1-rho, 1e-12) {
			t.Errorf("M/M/1 P0(rho=%g) = %g, want %g", rho, got, 1-rho)
		}
	}
	// M/M/2 with a = lambda/mu: p0 = [1 + a + a^2/(2-a)]^{-1}.
	for _, a := range []float64{0.4, 1.0, 1.8} {
		want := 1 / (1 + a + a*a/(2-a))
		got, err := P0(a, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("M/M/2 P0(a=%g) = %g, want %g", a, got, want)
		}
	}
}

func TestP0Errors(t *testing.T) {
	if _, err := P0(5, 1, 3); err == nil {
		t.Error("P0 with unstable k should error")
	}
	if _, err := P0(1, -1, 3); err == nil {
		t.Error("P0 with invalid mu should error")
	}
}

func TestP0IsProbabilityDistributionAnchor(t *testing.T) {
	// Full steady-state distribution must sum to 1:
	// p_l = p0 a^l/l! (l < k), p_l = p0 a^k/k! rho^(l-k) (l >= k).
	lambda, mu, k := 10.0, 3.0, 5
	a := lambda / mu
	p0, err := P0(lambda, mu, k)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	term := p0
	for l := 0; l < k; l++ {
		sum += term
		term *= a / float64(l+1)
	}
	// Geometric tail from l = k.
	rho := a / float64(k)
	sum += term / (1 - rho)
	if !almostEqual(sum, 1, 1e-9) {
		t.Errorf("steady-state probabilities sum to %g, want 1", sum)
	}
}

func TestMinStableServers(t *testing.T) {
	tests := []struct {
		name       string
		lambda, mu float64
		want       int
	}{
		{"fractional load", 10, 3, 4},
		{"integer load needs one extra", 9, 3, 4},
		{"light load", 0.5, 10, 1},
		{"no load", 0, 7, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := MinStableServers(tt.lambda, tt.mu)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("MinStableServers(%g, %g) = %d, want %d", tt.lambda, tt.mu, got, tt.want)
			}
			if es := ExpectedSojourn(tt.lambda, tt.mu, got); math.IsInf(es, 1) {
				t.Errorf("minimum stable allocation still unstable: E[T] = %g", es)
			}
		})
	}
	if _, err := MinStableServers(1, 0); err == nil {
		t.Error("want error for mu = 0")
	}
}

func TestConvexityProperty(t *testing.T) {
	// Inequality (5): marginal improvements strictly diminish, which is
	// what Theorem 1 rests on.
	f := func(lseed, mseed uint16, kseed uint8) bool {
		lambda := 0.1 + float64(lseed%5000)/10 // 0.1 .. 500
		mu := 0.1 + float64(mseed%1000)/10     // 0.1 .. 100
		minK, err := MinStableServers(lambda, mu)
		if err != nil {
			return false
		}
		k := minK + int(kseed%20)
		d1 := ExpectedSojourn(lambda, mu, k) - ExpectedSojourn(lambda, mu, k+1)
		d2 := ExpectedSojourn(lambda, mu, k+1) - ExpectedSojourn(lambda, mu, k+2)
		if math.IsInf(d1, 1) {
			return true // infinite first gain trivially exceeds any finite one
		}
		return d1 >= d2 && d2 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestMarginalBenefit checks Theorem 1's premise on the production
// marginal-benefit function.
func TestMarginalBenefit(t *testing.T) {
	lambda, mu := 20.0, 3.0
	minK, _ := MinStableServers(lambda, mu)
	prev := math.Inf(1)
	for k := minK; k < minK+15; k++ {
		mb := MarginalBenefit(lambda, mu, k)
		if mb < 0 {
			t.Fatalf("MarginalBenefit(k=%d) = %g < 0", k, mb)
		}
		if mb > prev {
			t.Fatalf("MarginalBenefit increased at k=%d: %g > %g", k, mb, prev)
		}
		prev = mb
	}
	if mb := MarginalBenefit(10, 1, 5); mb != 0 {
		t.Errorf("benefit when k+1 still unstable = %g, want 0", mb)
	}
	if mb := MarginalBenefit(10, 1, 10); !math.IsInf(mb, 1) {
		t.Errorf("benefit when exactly stabilizing = %g, want +Inf", mb)
	}
}

func TestExpectedQueueLengthMM1(t *testing.T) {
	// M/M/1: Lq = rho^2 / (1 - rho).
	lambda, mu := 3.0, 4.0
	rho := lambda / mu
	want := rho * rho / (1 - rho)
	got := lambda * ExpectedWait(lambda, mu, 1) // Little's law
	if !almostEqual(got, want, 1e-10) {
		t.Errorf("Lq = %g, want %g", got, want)
	}
}

func TestSojournDecreasesWithServers(t *testing.T) {
	f := func(lseed, mseed uint16) bool {
		lambda := 1 + float64(lseed%3000)/10
		mu := 0.5 + float64(mseed%500)/10
		minK, err := MinStableServers(lambda, mu)
		if err != nil {
			return false
		}
		prev := ExpectedSojourn(lambda, mu, minK)
		for k := minK + 1; k < minK+10; k++ {
			cur := ExpectedSojourn(lambda, mu, k)
			if cur > prev {
				return false
			}
			if cur < 1/mu {
				return false // can never beat the bare service time
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
