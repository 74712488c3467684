package stats

import (
	"math"
	"sort"
)

// Summary accumulates online mean and variance using Welford's algorithm.
// The zero value is ready to use.
type Summary struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Count reports the number of observations.
func (s Summary) Count() int64 { return s.n }

// Mean reports the sample mean (0 when empty).
func (s Summary) Mean() float64 { return s.mean }

// Var reports the sample variance (n-1 denominator; 0 for n < 2).
func (s Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev reports the sample standard deviation.
func (s Summary) StdDev() float64 { return math.Sqrt(s.Var()) }

// Reset clears the summary back to empty.
func (s *Summary) Reset() { *s = Summary{} }

// Sample retains all observations for quantile queries — the hook behind
// sim.Sim.KeepCompletionSample, which the simulator-vs-closed-form
// quantile test reads. Use for bounded runs, not for unbounded streams.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (p *Sample) Add(x float64) {
	p.xs = append(p.xs, x)
	p.sorted = false
}

// Quantile reports the q-quantile (0 <= q <= 1) by linear interpolation.
//
//checkdoc:testonly quantile validation: the simulator-vs-closed-form quantile test reads sojourn quantiles through it
func (p *Sample) Quantile(q float64) float64 {
	n := len(p.xs)
	if n == 0 {
		return 0
	}
	if !p.sorted {
		sort.Float64s(p.xs)
		p.sorted = true
	}
	if q <= 0 {
		return p.xs[0]
	}
	if q >= 1 {
		return p.xs[n-1]
	}
	pos := q * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= n {
		return p.xs[n-1]
	}
	return p.xs[i]*(1-frac) + p.xs[i+1]*frac
}
