package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCorrectedReducesToMMkAtCV1(t *testing.T) {
	for _, k := range []int{1, 3, 10} {
		lambda, mu := 5.0, 2.5
		plain := ExpectedSojourn(lambda, mu, k)
		corrected := ExpectedSojournCorrected(lambda, mu, k, 1)
		if !almostEqual(plain, corrected, 1e-14) {
			t.Errorf("k=%d: CV²=1 corrected %g != plain %g", k, corrected, plain)
		}
	}
}

func TestCorrectedMD1KnownResult(t *testing.T) {
	// M/D/1: Wq = rho/(2µ(1-rho)) — exactly half the M/M/1 wait. The
	// Allen-Cunneen form is exact here (cv2 = 0, k = 1).
	lambda, mu := 3.0, 4.0
	rho := lambda / mu
	want := rho / (2 * mu * (1 - rho))
	got := ExpectedWaitCorrected(lambda, mu, 1, 0)
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("M/D/1 Wq = %g, want %g", got, want)
	}
}

func TestCorrectedScalesWaitOnly(t *testing.T) {
	lambda, mu, k := 20.0, 3.0, 9
	wait := ExpectedWait(lambda, mu, k)
	for _, cv2 := range []float64{0, 0.5, 1, 2, 4} {
		got := ExpectedSojournCorrected(lambda, mu, k, cv2)
		want := wait*(1+cv2)/2 + 1/mu
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("cv2=%g: sojourn %g, want %g", cv2, got, want)
		}
	}
}

func TestCorrectedEdgeCases(t *testing.T) {
	if got := ExpectedWaitCorrected(10, 1, 5, 2); !math.IsInf(got, 1) {
		t.Errorf("unstable corrected wait = %g, want +Inf", got)
	}
	if got := ExpectedWaitCorrected(1, 2, 1, -1); !math.IsNaN(got) {
		t.Errorf("negative cv2 = %g, want NaN", got)
	}
	if got := ExpectedWaitCorrected(1, 0, 1, 1); !math.IsNaN(got) {
		t.Errorf("invalid mu = %g, want NaN", got)
	}
}

func TestCorrectedConvexityPreserved(t *testing.T) {
	// Theorem 1 requires diminishing marginal benefits; the correction
	// multiplies the convex wait by a positive constant, so the property
	// must survive for any cv2.
	f := func(lseed, mseed uint16, kseed, cvSeed uint8) bool {
		lambda := 0.5 + float64(lseed%3000)/10
		mu := 0.5 + float64(mseed%500)/10
		cv2 := float64(cvSeed%50) / 10 // 0 .. 4.9
		minK, err := MinStableServers(lambda, mu)
		if err != nil {
			return false
		}
		k := minK + int(kseed%15)
		d1 := ExpectedSojournCorrected(lambda, mu, k, cv2) - ExpectedSojournCorrected(lambda, mu, k+1, cv2)
		d2 := ExpectedSojournCorrected(lambda, mu, k+1, cv2) - ExpectedSojournCorrected(lambda, mu, k+2, cv2)
		if math.IsInf(d1, 1) {
			return true
		}
		return d1 >= d2 && d2 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

func TestMarginalBenefitCorrected(t *testing.T) {
	lambda, mu := 20.0, 3.0
	// At cv2 > 1 waits are larger, so marginal benefits are larger too.
	k := 8
	plain := MarginalBenefitCorrected(lambda, mu, k, 1)
	heavy := MarginalBenefitCorrected(lambda, mu, k, 3)
	if heavy <= plain {
		t.Errorf("heavy-tail benefit %g should exceed plain %g", heavy, plain)
	}
	if got := MarginalBenefitCorrected(10, 1, 5, 2); got != 0 {
		t.Errorf("benefit when k+1 unstable = %g, want 0", got)
	}
	if got := MarginalBenefitCorrected(10, 1, 10, 2); !math.IsInf(got, 1) {
		t.Errorf("benefit when stabilizing = %g, want +Inf", got)
	}
}
