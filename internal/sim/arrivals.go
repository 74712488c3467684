// Package sim is a discrete-event simulator for operator-network stream
// processing: each operator is a k-server station with a FIFO input queue,
// edges carry network delay and an emission model (how many child tuples
// one processed tuple produces), and external tuples arrive through
// configurable arrival processes. Tuple trees are tracked so the simulator
// measures exactly what the paper measures — the *total sojourn time* of an
// external tuple, from system entry until its last derived tuple finishes.
//
// The simulator substitutes for the paper's 6-machine Storm cluster: it
// runs the same topologies, produces the same per-interval measurements
// (fed through the same measurer code), and supports mid-run rebalance and
// scale events with their modeled pauses, which is what Figures 6-10 need.
package sim

import (
	"fmt"
	"math"

	"github.com/drs-repro/drs/internal/stats"
)

// ArrivalProcess generates the inter-arrival times of external tuples.
type ArrivalProcess interface {
	// NextInterArrival returns the time in seconds until the next arrival.
	NextInterArrival(r *stats.RNG) float64
}

// PoissonArrivals is a Poisson process at Rate per second (exponential
// inter-arrivals) — the paper's FPD tweet feed (320 tweets/s).
type PoissonArrivals struct {
	Rate float64
}

// NextInterArrival draws an exponential gap.
func (p PoissonArrivals) NextInterArrival(r *stats.RNG) float64 { return r.Exp(p.Rate) }

// ModulatedRate redraws the instantaneous rate from RateDist every Period
// seconds and emits Poisson arrivals at that rate meanwhile. It reproduces
// the paper's VLD frame source: "uniformly distributed in [1,25] with a
// mean of 13 frames/second" — a rate that wanders, deliberately violating
// the model's Poisson assumption.
type ModulatedRate struct {
	// RateDist samples the instantaneous rate (per second).
	RateDist stats.Dist
	// Period is how long each sampled rate holds, in seconds.
	Period float64

	rate     float64
	deadline float64
	clock    float64
}

// NextInterArrival draws from the current modulated rate, redrawing the
// rate each period boundary.
func (m *ModulatedRate) NextInterArrival(r *stats.RNG) float64 {
	if m.rate <= 0 || m.clock >= m.deadline {
		m.rate = math.Max(m.RateDist.Sample(r), 1e-9)
		m.deadline = m.clock + m.Period
	}
	gap := r.Exp(m.rate)
	m.clock += gap
	return gap
}

// ShapedRate modulates a base arrival process by a deterministic
// time-varying envelope: the gap drawn from the base process is divided
// by the envelope's factor at the gap's start. One envelope is a load step
// (a factor inside a window, 1 outside it); another is a scenario's
// diurnal day with its flash crowds. The process tracks time by
// accumulating its own gaps, so it needs no clock plumbing (like
// ModulatedRate); a gap straddling a change is drawn at the factor in
// force when it starts.
type ShapedRate struct {
	// Base is the underlying arrival process (required).
	Base ArrivalProcess
	// Envelope maps simulated time to a strictly positive rate factor.
	Envelope func(t float64) float64

	clock float64
}

// NextInterArrival draws from the base process, compressing or stretching
// the gap by the envelope factor in force when it starts.
func (s *ShapedRate) NextInterArrival(r *stats.RNG) float64 {
	gap := s.Base.NextInterArrival(r)
	if f := s.Envelope(s.clock); f > 0 {
		gap /= f
	}
	s.clock += gap
	return gap
}

// EmissionModel decides how many child tuples a processed tuple emits on
// one edge. Its long-run mean must equal the edge's selectivity for the
// traffic equations to hold.
type EmissionModel interface {
	// Count samples the number of children for one processed tuple.
	Count(r *stats.RNG) int
}

// FractionalEmission emits floor(Selectivity) children always, plus one
// more with probability frac(Selectivity). It is the default: exact mean,
// minimal variance, and it degenerates to a Bernoulli split for
// selectivity < 1 and to a deterministic fan-out for integers.
type FractionalEmission struct {
	Selectivity float64
}

// NewFractionalEmission validates the selectivity.
func NewFractionalEmission(sel float64) (FractionalEmission, error) {
	if sel < 0 || math.IsNaN(sel) || math.IsInf(sel, 0) {
		return FractionalEmission{}, fmt.Errorf("sim: selectivity %g must be finite and >= 0", sel)
	}
	return FractionalEmission{Selectivity: sel}, nil
}

// Count samples floor + Bernoulli(frac).
func (f FractionalEmission) Count(r *stats.RNG) int {
	base := int(f.Selectivity)
	if r.Bernoulli(f.Selectivity - float64(base)) {
		base++
	}
	return base
}

// PoissonEmission emits a Poisson-distributed number of children with the
// given mean — higher variance, e.g. "SIFT features per frame may vary
// dramatically" (§V-A).
type PoissonEmission struct {
	Selectivity float64
}

// Count samples Poisson(Selectivity).
func (p PoissonEmission) Count(r *stats.RNG) int { return r.Poisson(p.Selectivity) }
