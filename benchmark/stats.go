package main

import (
	"math"
	"sort"
	"sync"
)

// quantileSorted reads the q-quantile (0..1) of an ascending slice by
// nearest rank.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// the spread rule the benchmark contract is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	m := len(xs)
	if m < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}

// latencySummary is what a set of latency samples reduces to. P99 is
// reported only when at least ten samples lie beyond it.
type latencySummary struct {
	N      int     `json:"n"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P99OK  bool    `json:"p99_ok"`
	MaxMS  float64 `json:"max_ms"`
}

// summarizeNS sorts ns in place.
func summarizeNS(ns []float64) latencySummary {
	s := latencySummary{N: len(ns)}
	if len(ns) == 0 {
		return s
	}
	sort.Float64s(ns)
	s.MeanMS = mean(ns) / 1e6
	s.P50MS = quantileSorted(ns, 0.50) / 1e6
	s.P99MS = quantileSorted(ns, 0.99) / 1e6
	s.P99OK = len(ns) >= 1000
	s.MaxMS = ns[len(ns)-1] / 1e6
	return s
}

// collector gathers durations from concurrent decorators (traced pass
// only: the append takes a lock).
type collector struct {
	mu sync.Mutex
	ns []float64
}

func (c *collector) add(ns int64) {
	c.mu.Lock()
	c.ns = append(c.ns, float64(ns))
	c.mu.Unlock()
}

func (c *collector) summary() latencySummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return summarizeNS(c.ns)
}

// scaled returns xs multiplied by k (for printing in another unit).
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
