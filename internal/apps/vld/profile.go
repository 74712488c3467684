// Package vld implements the paper's first test application: real-time
// video logo detection (§V-A, Figure 4) — a chain of a frame spout, a
// SIFT-style feature extractor, a feature matcher and a matching
// aggregator.
//
// Two forms are provided.
//
// The simulation profile models the pipeline at *frame granularity*: each
// stage handles one tuple per frame (the extractor's output is the frame's
// whole feature set, as a batch), so the chain has selectivity 1 and every
// operator sees λ_i = 13 tuples/s. This granularity is what makes the
// paper's Jackson estimate track the measured tree-completion time — with
// per-feature tuples the weighted-sum estimate counts fan-out branches
// sequentially while the real system overlaps them (see EXPERIMENTS.md).
// Per-frame service times are calibrated so the DRS model reproduces the
// paper's headline allocations: AssignProcessors(22) = (10:11:1) and
// AssignProcessors(17) = (8:8:1), with E[T] at the optimum ≈ 0.98 s
// (paper: ≈ 0.49 s on their hardware) and the (8:8:1)/(10:11:1) ratio
// ≈ 1.22, matching the paper's Fig. 10 ratio.
//
// The engine pipeline is a real pure-Go implementation (synthetic frames,
// gradient-based feature extraction, L2 descriptor matching, per-frame
// aggregation) used by the examples and integration tests; it passes
// feature-granularity tuples like the Storm original.
//
// Substitution note (DESIGN.md): the paper uses soccer-match video clips
// and OpenCV SIFT. Frame content does not matter to scheduling — only the
// arrival process, the per-tuple cost distribution and the topology shape
// do — so frames are synthetic and the extractor is a small gradient
// detector with SIFT-like cost shape.
package vld

import (
	"fmt"
	"math"

	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/sim"
	"github.com/drs-repro/drs/internal/stats"
	"github.com/drs-repro/drs/internal/topology"
)

// Calibrated workload constants (see DESIGN.md "per-experiment index").
const (
	// MeanFPS is the mean external frame rate; the instantaneous rate is
	// uniform on [1, 25) as in §V-B.
	MeanFPS = 13.0
	// FPSLow and FPSHigh bound the modulated frame rate.
	FPSLow, FPSHigh = 1.0, 25.0

	// ExtractService is the mean seconds of SIFT-style extraction per frame.
	ExtractService = 0.45
	// MatchService is the mean seconds to match one frame's feature batch.
	MatchService = 0.50
	// AggregateService is the mean seconds to aggregate one frame's matches.
	AggregateService = 0.01

	// HopDelayMean is the mean per-hop network delay in seconds. VLD is
	// computation-intensive, so the network contribution is small — the
	// paper's Fig. 7 shows only slight underestimation for VLD.
	HopDelayMean = 0.001
)

// OperatorNames lists the bolts in model order.
func OperatorNames() []string { return []string{"extract", "match", "aggregate"} }

// Topology returns the VLD operator network as a model-facing description
// (rates and selectivities), from which the Jackson model is derived.
func Topology() (*topology.Topology, error) {
	return topology.NewBuilder().
		AddOperator("extract", 1/ExtractService, MeanFPS).
		AddOperator("match", 1/MatchService, 0).
		AddOperator("aggregate", 1/AggregateService, 0).
		Connect("extract", "match", 1).
		Connect("match", "aggregate", 1).
		Build()
}

// Model returns the calibrated DRS performance model for VLD.
func Model() (*core.Model, error) {
	topo, err := Topology()
	if err != nil {
		return nil, err
	}
	return core.NewModelFromTopology(topo)
}

// SimConfig builds the discrete-event simulation of the VLD pipeline under
// the given allocation (extract, match, aggregate).
//
// Fidelity choices mirror the paper's deliberate violations of the model's
// assumptions: the frame rate is *uniformly* modulated on [1,25) rather
// than Poisson, and per-frame costs are lognormal ("the number of SIFT
// features may vary dramatically on different frames, causing significant
// variance"). The starred allocation (10:11:1) is the only Fig. 6
// configuration whose capacity covers the 25 fps modulated peak at both
// heavy stages, which is what separates it in measured mean and stddev.
func SimConfig(alloc []int, seed uint64) (sim.Config, error) {
	if len(alloc) != 3 {
		return sim.Config{}, fmt.Errorf("vld: allocation needs 3 operators, got %d", len(alloc))
	}
	hop := stats.Exponential{Rate: 1 / HopDelayMean}
	return sim.Config{
		Operators: []sim.OperatorSpec{
			{Name: "extract", Service: logNormalWithMean(ExtractService, 0.6)},
			{Name: "match", Service: logNormalWithMean(MatchService, 0.5)},
			{Name: "aggregate", Service: stats.Exponential{Rate: 1 / AggregateService}},
		},
		Edges: []sim.EdgeSpec{
			{From: 0, To: 1, Emit: sim.FractionalEmission{Selectivity: 1}, NetDelay: hop},
			{From: 1, To: 2, Emit: sim.FractionalEmission{Selectivity: 1}, NetDelay: hop},
		},
		Sources: []sim.SourceSpec{{
			Op: 0,
			Arrivals: &sim.ModulatedRate{
				RateDist: stats.Uniform{Lo: FPSLow, Hi: FPSHigh},
				Period:   1,
			},
		}},
		Alloc: append([]int(nil), alloc...),
		Seed:  seed,
	}, nil
}

// logNormalWithMean returns a lognormal distribution with the given mean
// and log-space sigma.
func logNormalWithMean(mean, sigma float64) stats.Dist {
	return stats.LogNormal{Mu: math.Log(mean) - sigma*sigma/2, Sigma: sigma}
}

// Figure6Allocations are the six configurations of Fig. 6 (VLD), the
// starred one being DRS's recommendation.
func Figure6Allocations() [][]int {
	return [][]int{
		{8, 12, 2}, {9, 11, 2}, {10, 11, 1}, {11, 9, 2}, {11, 10, 1}, {12, 9, 1},
	}
}

// RecommendedAllocation is DRS's pick at Kmax = 22.
func RecommendedAllocation() []int { return []int{10, 11, 1} }
