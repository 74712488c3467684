package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrShortSeries is returned when a correlation is requested
// over fewer than two points.
var ErrShortSeries = errors.New("stats: need at least two points")

// Pearson computes the Pearson correlation coefficient of two equal-length
// series. It is used to quantify how well the model's estimated sojourn
// times track the measured ones (Fig. 7).
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: series length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return 0, ErrShortSeries
	}
	mx, my := meanOf(xs), meanOf(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance series")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman computes the Spearman rank correlation of two equal-length
// series. A value of exactly 1 means the estimated ordering of allocations
// matches the measured ordering — the "strict monotonicity" the paper reads
// off Fig. 7.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: series length mismatch")
	}
	if len(xs) < 2 {
		return 0, ErrShortSeries
	}
	return Pearson(ranks(xs), ranks(ys))
}

// ranks assigns average ranks (1-based) with ties averaged.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

func meanOf(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
