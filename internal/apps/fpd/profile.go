// Package fpd implements the paper's second test application: maximal
// frequent pattern detection over a sliding window of a microblog stream
// (§V-A, Figure 5). Two spouts emit an event as a tweet enters (+) or
// leaves (−) the window; a pattern generator expands each event into
// candidate itemsets; a stateful, partitioned detector maintains occurrence
// counts and maximal-frequent-pattern (MFP) flags, broadcasting state
// changes to all of its own tasks over a feedback loop; a reporter receives
// the MFP updates.
//
// The simulation profile is calibrated so the DRS model reproduces the
// paper's recommendation AssignProcessors(22) = (6:13:3), with an estimated
// E[T] ≈ 27.7 ms (paper: ≈ 15.5 ms). FPD is the paper's data-intensive
// counter-example: per-hop network delay dominates the measured sojourn, so
// the model underestimates heavily but preserves the ordering (Fig. 7).
//
// Substitution note (DESIGN.md): the paper replays 28.7M real tweets; we
// generate synthetic transactions with a Zipf vocabulary at the same
// Poisson arrival rate (320 tweets/s) over the same 50,000-tweet window.
// The mining logic itself is real (see mining.go) and verified against a
// brute-force reference.
package fpd

import (
	"fmt"

	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/sim"
	"github.com/drs-repro/drs/internal/stats"
	"github.com/drs-repro/drs/internal/topology"
)

// Calibrated workload constants.
const (
	// TweetsPerSecond is the Poisson arrival rate of tweets (§V-B).
	TweetsPerSecond = 320.0
	// EventsPerSecond is the external event rate: each tweet produces one
	// "+" event entering the 50000-tweet sliding window (§V-B) and one "−"
	// event leaving it.
	EventsPerSecond = 2 * TweetsPerSecond

	// CandidatesPerEvent is the mean candidate itemsets per window event
	// (pattern-generator selectivity).
	CandidatesPerEvent = 2.0
	// LoopGain is the probability that a detector state change feeds a
	// notification back into the detector (per processed candidate).
	LoopGain = 0.05
	// ReportSelectivity is the fraction of detector inputs that produce a
	// reporter update.
	ReportSelectivity = 0.1

	// GeneratorService, DetectorService and ReporterService are mean
	// per-tuple service seconds.
	GeneratorService = 0.006
	DetectorService  = 0.00757
	ReporterService  = 0.01262

	// HopDelayMean is the mean per-hop transfer delay in seconds. FPD is
	// data-intensive: per-hop cost includes serializing itemset batches,
	// not just wire latency, and dominates the sojourn — which is why the
	// model (which ignores the network) underestimates the measurement
	// several-fold while still ranking allocations correctly (paper: ~8x;
	// this profile: ~3x).
	HopDelayMean = 0.050
)

// OperatorNames lists the bolts in model order.
func OperatorNames() []string { return []string{"generate", "detect", "report"} }

// Topology returns the FPD operator network, including the detector's
// feedback loop — the paper's Figure 5.
func Topology() (*topology.Topology, error) {
	return topology.NewBuilder().
		AddOperator("generate", 1/GeneratorService, EventsPerSecond).
		AddOperator("detect", 1/DetectorService, 0).
		AddOperator("report", 1/ReporterService, 0).
		Connect("generate", "detect", CandidatesPerEvent).
		Connect("detect", "detect", LoopGain).
		Connect("detect", "report", ReportSelectivity).
		Build()
}

// Model returns the calibrated DRS performance model for FPD. The traffic
// equations resolve the loop: λ_detect = 640·2/(1−0.05) ≈ 1347/s.
func Model() (*core.Model, error) {
	topo, err := Topology()
	if err != nil {
		return nil, err
	}
	return core.NewModelFromTopology(topo)
}

// SimConfig builds the discrete-event simulation of FPD under the given
// allocation (generate, detect, report).
func SimConfig(alloc []int, seed uint64) (sim.Config, error) {
	if len(alloc) != 3 {
		return sim.Config{}, fmt.Errorf("fpd: allocation needs 3 operators, got %d", len(alloc))
	}
	hop := stats.Exponential{Rate: 1 / HopDelayMean}
	return sim.Config{
		Operators: []sim.OperatorSpec{
			{Name: "generate", Service: stats.Exponential{Rate: 1 / GeneratorService}},
			{Name: "detect", Service: stats.Exponential{Rate: 1 / DetectorService}},
			{Name: "report", Service: stats.Exponential{Rate: 1 / ReporterService}},
		},
		Edges: []sim.EdgeSpec{
			{From: 0, To: 1, Emit: sim.PoissonEmission{Selectivity: CandidatesPerEvent}, NetDelay: hop},
			{From: 1, To: 1, Emit: sim.FractionalEmission{Selectivity: LoopGain}, NetDelay: hop},
			{From: 1, To: 2, Emit: sim.FractionalEmission{Selectivity: ReportSelectivity}, NetDelay: hop},
		},
		Sources: []sim.SourceSpec{
			// Two spouts, as in Figure 5: the "+" and "−" event streams.
			{Op: 0, Arrivals: PoissonHalf()},
			{Op: 0, Arrivals: PoissonHalf()},
		},
		Alloc: append([]int(nil), alloc...),
		Seed:  seed,
	}, nil
}

// PoissonHalf is one spout's share of the external event stream.
func PoissonHalf() sim.ArrivalProcess {
	return sim.PoissonArrivals{Rate: EventsPerSecond / 2}
}

// Figure6Allocations are the six configurations of Fig. 6 (FPD), the
// starred one being DRS's recommendation.
func Figure6Allocations() [][]int {
	return [][]int{
		{5, 14, 3}, {6, 12, 4}, {6, 13, 3}, {7, 12, 3}, {7, 13, 2}, {8, 12, 2},
	}
}

// RecommendedAllocation is DRS's pick at Kmax = 22.
func RecommendedAllocation() []int { return []int{6, 13, 3} }
