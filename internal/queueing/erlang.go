// Package queueing implements the per-operator M/M/k (Erlang) queueing
// mathematics that the DRS performance model is built on (paper §III-B,
// Equations 1 and 2).
//
// The paper states Equation (1) in terms of factorials; computing it that
// way overflows float64 well below the offered loads a real topology can
// reach. This package instead uses the standard Erlang-B recurrence
//
//	B(0, a) = 1,  B(k, a) = a·B(k-1, a) / (k + a·B(k-1, a))
//
// and derives Erlang-C and the expected sojourn time from it, which is
// numerically stable for any load. The direct factorial form is kept (for
// moderate loads) as P0 and expectedSojournDirect, and the test suite checks
// the two forms agree — that is the fidelity argument for the substitution.
package queueing

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnstable is returned by functions that cannot produce a finite result
// because the operator has fewer servers than its offered load requires
// (k ≤ λ/µ), the regime where Equation (1) is +∞.
var ErrUnstable = errors.New("queueing: operator unstable (k <= lambda/mu)")

// ErrInvalidRates is returned when λ < 0 or µ ≤ 0.
var ErrInvalidRates = errors.New("queueing: rates must satisfy lambda >= 0, mu > 0")

// ErlangB computes the Erlang-B blocking probability B(k, a) for k servers
// at offered load a, via the standard recurrence. It returns 1 for k == 0.
func ErlangB(k int, a float64) float64 {
	if k < 0 || a < 0 || math.IsNaN(a) {
		return math.NaN()
	}
	b := 1.0
	for i := 1; i <= k; i++ {
		b = a * b / (float64(i) + a*b)
	}
	return b
}

// ErlangC computes the Erlang-C probability that an arriving tuple must
// wait, C(k, a), for k servers at offered load a. For k ≤ a the system is
// unstable and every arrival waits, so it returns 1.
func ErlangC(k int, a float64) float64 {
	if k < 0 || a < 0 || math.IsNaN(a) {
		return math.NaN()
	}
	if float64(k) <= a {
		return 1
	}
	b := ErlangB(k, a)
	return float64(k) * b / (float64(k) - a*(1-b))
}

// ExpectedWait returns the expected queueing delay Wq of an M/M/k system
// with arrival rate lambda, per-server service rate mu and k servers.
// It returns +Inf when k ≤ λ/µ and NaN for invalid rates.
func ExpectedWait(lambda, mu float64, k int) float64 {
	if lambda < 0 || mu <= 0 || math.IsNaN(lambda) || math.IsNaN(mu) {
		return math.NaN()
	}
	if lambda == 0 {
		return 0
	}
	a := lambda / mu
	if float64(k) <= a {
		return math.Inf(1)
	}
	return ErlangC(k, a) / (float64(k)*mu - lambda)
}

// ExpectedSojourn returns E[T_i](k_i) of Equation (1): the expected time
// between a tuple arriving at the operator and the operator finishing it,
// i.e. queueing delay plus service time 1/µ.
// It returns +Inf when k ≤ λ/µ (the paper's unstable branch) and NaN for
// invalid rates.
func ExpectedSojourn(lambda, mu float64, k int) float64 {
	w := ExpectedWait(lambda, mu, k)
	if math.IsNaN(w) {
		return w
	}
	return w + 1/mu
}

// MarginalBenefit returns λ·(E[T](k) − E[T](k+1)): the decrease in the
// network-level objective of Equation (3) contributed by granting this
// operator one more server. By convexity of E[T](k) (Inequality (5)) it is
// non-negative and non-increasing in k, which is what makes the greedy
// allocation of Algorithm 1 exactly optimal (Theorem 1). It returns +Inf
// when the operator is currently unstable (any finite improvement from
// infinity dominates) and 0 when k+1 is still unstable.
func MarginalBenefit(lambda, mu float64, k int) float64 {
	cur := ExpectedSojourn(lambda, mu, k)
	next := ExpectedSojourn(lambda, mu, k+1)
	switch {
	case math.IsInf(next, 1):
		return 0
	case math.IsInf(cur, 1):
		return math.Inf(1)
	default:
		return lambda * (cur - next)
	}
}

// P0 computes the normalization term π₀ of Equation (2) — the steady-state
// probability that the operator is empty. It sums the factorial series
// directly, which is exact for the moderate offered loads DRS topologies
// run at; for very large loads where the series overflows it returns 0
// (the true value underflows anyway). Returns an error for k ≤ λ/µ or
// invalid rates.
func P0(lambda, mu float64, k int) (float64, error) {
	if lambda < 0 || mu <= 0 {
		return 0, ErrInvalidRates
	}
	a := lambda / mu
	if float64(k) <= a {
		return 0, fmt.Errorf("p0 with k=%d, a=%g: %w", k, a, ErrUnstable)
	}
	sum := 0.0
	term := 1.0 // a^l / l! for l = 0
	for l := 0; l < k; l++ {
		sum += term
		term *= a / float64(l+1)
		if math.IsInf(sum, 1) || math.IsInf(term, 1) {
			return 0, nil
		}
	}
	rho := a / float64(k)
	sum += term / (1 - rho) // term is now a^k/k!
	if math.IsInf(sum, 1) {
		return 0, nil
	}
	return 1 / sum, nil
}

// expectedSojournDirect evaluates Equation (1) literally, factorials and
// all, via P0. It exists so the tests can prove the stable recurrence form
// matches the paper's formula; production code uses ExpectedSojourn.
func expectedSojournDirect(lambda, mu float64, k int) float64 {
	a := lambda / mu
	if float64(k) <= a {
		return math.Inf(1)
	}
	p0, err := P0(lambda, mu, k)
	if err != nil {
		return math.NaN()
	}
	// a^k / k! computed incrementally.
	t := 1.0
	for l := 1; l <= k; l++ {
		t *= a / float64(l)
	}
	rho := a / float64(k)
	return t*p0/((1-rho)*(1-rho)*mu*float64(k)) + 1/mu
}

// MinStableServers returns the smallest k with k > λ/µ, i.e. the fewest
// servers that give a finite E[T]. The paper's Algorithm 1 initializes
// k_i = ⌈λ_i/µ_i⌉, which coincides with this except when λ/µ is an exact
// integer — there the ceiling itself is unstable (Equation (1) is +∞ at
// k = λ/µ), so we use ⌊λ/µ⌋+1 throughout.
func MinStableServers(lambda, mu float64) (int, error) {
	if lambda < 0 || mu <= 0 || math.IsNaN(lambda) || math.IsNaN(mu) {
		return 0, ErrInvalidRates
	}
	if lambda == 0 {
		return 1, nil
	}
	return int(math.Floor(lambda/mu)) + 1, nil
}
