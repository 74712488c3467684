// Package stats provides the statistical substrate shared by the DRS model,
// the discrete-event simulator and the experiment harness: seeded random
// number generation, probability distributions, online summary statistics,
// histograms, correlation and simple regression.
//
// Everything in this package is deterministic given a seed, which is what
// makes the experiment harness reproducible run-to-run.
package stats

import (
	"math"
	"math/rand/v2"
)

// RNG is a seeded pseudo-random number generator. It wraps a PCG source and
// adds the sampling helpers used throughout the simulator and the workload
// generators. RNG is not safe for concurrent use; give each goroutine its
// own via Split.
type RNG struct {
	src *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{src: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Split derives an independent generator from r, keyed by id. Two Split
// calls with different ids yield streams that do not overlap in practice.
func (r *RNG) Split(id uint64) *RNG {
	s1 := r.src.Uint64()
	return &RNG{src: rand.New(rand.NewPCG(s1^id, id*0xbf58476d1ce4e5b9+1))}
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Exp returns an exponential sample with the given rate (mean 1/rate).
// It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exp requires rate > 0")
	}
	// Inverse CDF; 1-U avoids log(0).
	return -math.Log(1-r.src.Float64()) / rate
}

// Uniform returns a uniform sample in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Norm returns a normal sample with the given mean and standard deviation.
func (r *RNG) Norm(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// LogNormal returns a sample of exp(N(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.src.NormFloat64())
}

// Poisson returns a Poisson-distributed sample with the given mean.
// For large means it uses a normal approximation to stay O(1).
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		// Normal approximation with continuity correction.
		v := math.Round(r.Norm(mean, math.Sqrt(mean)))
		if v < 0 {
			return 0
		}
		return int(v)
	}
	// Knuth's method.
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.src.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.src.Float64() < p }

// Pareto returns a Pareto(scale, alpha) sample in [scale, ∞) by inverse
// CDF: scale · (1−U)^(−1/alpha). The mean is alpha·scale/(alpha−1) for
// alpha > 1; alpha ≤ 1 has no finite mean. It panics if scale or alpha is
// not positive.
func (r *RNG) Pareto(scale, alpha float64) float64 {
	if scale <= 0 || alpha <= 0 {
		panic("stats: Pareto requires scale > 0 and alpha > 0")
	}
	return scale * math.Pow(1-r.src.Float64(), -1/alpha)
}

// Zipf samples from a Zipf distribution over {0, ..., n-1} with skew s > 1.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf builds a Zipf sampler over n items with exponent s (s > 1) using
// r as the randomness source.
func NewZipf(r *RNG, s float64, n uint64) *Zipf {
	return &Zipf{z: rand.NewZipf(r.src, s, 1, n-1)}
}

// Next returns the next Zipf sample.
func (z *Zipf) Next() uint64 { return z.z.Uint64() }
