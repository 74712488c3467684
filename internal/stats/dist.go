package stats

import (
	"fmt"
	"math"
)

// Dist is a sampleable non-negative distribution. It is the abstraction the
// simulator uses for inter-arrival times and service times, so that an
// experiment can swap exponential for uniform, lognormal or Pareto
// variants (the paper deliberately runs the model outside its exponential
// assumptions, e.g. uniform frame rates in §V).
type Dist interface {
	// Sample draws one value using the provided generator.
	Sample(r *RNG) float64
	// Mean reports the distribution's expected value.
	//
	//checkdoc:testonly a reference: TestDistMeans compares sample means against it, and the scenario tests a compiled service time's mean
	Mean() float64
}

// Exponential is an exponential distribution with the given Rate (mean 1/Rate).
type Exponential struct {
	Rate float64
}

// Sample draws an exponential variate.
func (e Exponential) Sample(r *RNG) float64 { return r.Exp(e.Rate) }

// Mean returns 1/Rate.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Uniform is a uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// Sample draws a uniform variate in [Lo, Hi).
func (u Uniform) Sample(r *RNG) float64 { return r.Uniform(u.Lo, u.Hi) }

// Mean returns (Lo+Hi)/2.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// LogNormal is a lognormal distribution, exp(N(Mu, Sigma)). Heavy-tailed
// service times (e.g. per-frame SIFT cost) are modeled with it.
type LogNormal struct {
	Mu, Sigma float64
}

// Sample draws a lognormal variate.
func (l LogNormal) Sample(r *RNG) float64 { return r.LogNormal(l.Mu, l.Sigma) }

// Mean returns exp(Mu + Sigma^2/2).
func (l LogNormal) Mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

// Pareto is a Pareto distribution on [Scale, ∞) with tail exponent Alpha —
// the canonical heavy-tailed service-time model for straggler studies:
// most tuples are cheap, a power-law minority is arbitrarily expensive.
// Alpha in (1, 2] keeps a finite mean with infinite variance; the scenario
// factory pins the mean to a chain's 1/µ and composes the tail in.
type Pareto struct {
	Scale, Alpha float64
}

// NewParetoWithMean builds a Pareto with the given mean and tail exponent
// (alpha > 1, so the mean exists): Scale = mean·(alpha−1)/alpha.
func NewParetoWithMean(mean, alpha float64) (Pareto, error) {
	if !(mean > 0) || math.IsInf(mean, 0) {
		return Pareto{}, fmt.Errorf("stats: Pareto mean %g must be finite and positive", mean)
	}
	if !(alpha > 1) || math.IsInf(alpha, 0) {
		return Pareto{}, fmt.Errorf("stats: Pareto alpha %g must be finite and > 1 for a finite mean", alpha)
	}
	return Pareto{Scale: mean * (alpha - 1) / alpha, Alpha: alpha}, nil
}

// Sample draws a Pareto variate.
func (p Pareto) Sample(r *RNG) float64 { return r.Pareto(p.Scale, p.Alpha) }

// Mean returns alpha·scale/(alpha−1); +Inf when alpha ≤ 1.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Scale / (p.Alpha - 1)
}
