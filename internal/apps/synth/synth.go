// Package synth is the paper's synthetic validation topology (§V-C,
// Figure 8): a simple chain of three bolts whose only work is a
// configurable amount of pure CPU time. Sweeping the total CPU time from
// sub-millisecond to hundreds of milliseconds while holding the per-hop
// network cost fixed shows how the model's underestimation (it ignores the
// network) shrinks as computation comes to dominate — the paper's
// justification for restricting DRS to computation-intensive workloads.
package synth

import (
	"fmt"

	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/sim"
	"github.com/drs-repro/drs/internal/stats"
)

// Paper workload sweep: total bolt CPU time in seconds, log-spaced from
// 0.567 ms to 309.1 ms (§V-C reports those endpoints and 6 workloads).
func Workloads() []float64 {
	return []float64{0.000567, 0.00201, 0.00713, 0.0253, 0.0897, 0.3091}
}

// Split is the share of total CPU time given to each of the three bolts.
var split = [3]float64{0.2, 0.3, 0.5}

const (
	// ArrivalRate is the external tuple rate; 50/s keeps the heaviest
	// workload stable under the fixed allocation.
	ArrivalRate = 50.0
	// HopDelayMean models the per-hop framework + network overhead that
	// the DRS model deliberately ignores. Two inter-bolt hops at ~17 ms
	// reproduce the paper's ~60x ratio at the lightest workload.
	HopDelayMean = 0.017
)

// Allocation is the fixed executor split: 30 executors over 6 machines in
// the paper's setup; 10 per bolt here.
func Allocation() []int { return []int{10, 10, 10} }

// Model returns the DRS model for the chain at the given total CPU time.
func Model(totalCPU float64) (*core.Model, error) {
	if totalCPU <= 0 {
		return nil, fmt.Errorf("synth: total CPU %g must be positive", totalCPU)
	}
	ops := make([]core.OpRates, 3)
	for i := range ops {
		ops[i] = core.OpRates{
			Name:   fmt.Sprintf("bolt%d", i+1),
			Lambda: ArrivalRate,
			Mu:     1 / (totalCPU * split[i]),
		}
	}
	return core.NewModel(ArrivalRate, ops)
}

// SimConfig builds the chain simulation at the given total CPU time.
// Service times are exponential around each bolt's share; hops carry the
// fixed network cost.
func SimConfig(totalCPU float64, seed uint64) (sim.Config, error) {
	if totalCPU <= 0 {
		return sim.Config{}, fmt.Errorf("synth: total CPU %g must be positive", totalCPU)
	}
	hop := stats.Exponential{Rate: 1 / HopDelayMean}
	ops := make([]sim.OperatorSpec, 3)
	for i := range ops {
		ops[i] = sim.OperatorSpec{Service: stats.Exponential{Rate: 1 / (totalCPU * split[i])}}
	}
	return sim.Config{
		Operators: ops,
		Edges: []sim.EdgeSpec{
			{From: 0, To: 1, Emit: sim.FractionalEmission{Selectivity: 1}, NetDelay: hop},
			{From: 1, To: 2, Emit: sim.FractionalEmission{Selectivity: 1}, NetDelay: hop},
		},
		Sources: []sim.SourceSpec{{Op: 0, Arrivals: sim.PoissonArrivals{Rate: ArrivalRate}}},
		Alloc:   Allocation(),
		Seed:    seed,
	}, nil
}
