package experiments

import (
	"fmt"
	"io"
	"slices"

	"github.com/drs-repro/drs/internal/apps/synth"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/sim"
	"github.com/drs-repro/drs/internal/stats"
)

// sweep.go is the steady-state runner and the four figures over it:
// Figures 6, 7 and 8 and the shedding study are each a list of cases on a
// paper timeline, the claims derived from the measured points, and a
// renderer.

// Point is the steady-state runner's result: one fixed allocation
// simulated to the horizon with re-balancing disabled.
type Point struct {
	// Alloc is the processor allocation in force.
	Alloc []int
	// EstimatedMillis is the model's E[T] for Alloc (zero when the case
	// carries no model).
	EstimatedMillis float64
	// MeanMillis and StdMillis summarize the measured total sojourn time
	// of tuples that produced results.
	MeanMillis, StdMillis float64
	// DropRate is dropped tuples / external tuples (0 = every result
	// delivered; the paper's "incorrect results" cost of shedding).
	DropRate float64
}

// sweepCase is one steady-state simulation as data.
type sweepCase struct {
	alloc  []int
	config func(seed uint64) (sim.Config, error)
	// model, when set, supplies the estimate.
	model *core.Model
	// maxQueue bounds every station queue (0: unbounded); full queues shed.
	maxQueue int
}

// sweepPaper is the steady-state timeline of Figs. 6 and 7 and the
// shedding study: independent 10-minute runs, the first minute discarded.
// Fig. 8's six lighter runs take half of it, with a sixth of the warm-up.
var (
	sweepPaper = timeline{horizon: 600, warmup: 60}
	fig8Paper  = timeline{horizon: 300, warmup: 10}
)

// measure runs each case to the horizon of the scaled paper timeline.
func measure(cases []sweepCase, paper timeline, o Options) ([]Point, error) {
	tl := paper.at(o)
	points := make([]Point, len(cases))
	for i, c := range cases {
		pt := Point{Alloc: c.alloc}
		if c.model != nil {
			est, err := c.model.ExpectedSojourn(c.alloc)
			if err != nil {
				return nil, err
			}
			pt.EstimatedMillis = est * 1e3
		}
		cfg, err := c.config(o.seed())
		if err != nil {
			return nil, err
		}
		cfg.MaxQueue = c.maxQueue
		s, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		s.SetWarmup(tl.warmup)
		s.RunUntil(tl.horizon)
		cs := s.CompletedStats()
		if cs.Count() == 0 {
			return nil, fmt.Errorf("experiments: no completions for %v", c.alloc)
		}
		pt.MeanMillis, pt.StdMillis = cs.Mean()*1e3, cs.StdDev()*1e3
		var dropped int64
		for _, d := range s.Dropped() {
			dropped += d
		}
		if rep := s.DrainInterval(); rep.ExternalArrivals > 0 {
			pt.DropRate = float64(dropped) / float64(rep.ExternalArrivals)
		}
		points[i] = pt
	}
	return points, nil
}

// fixed is the application pinned at alloc with unbounded queues,
// estimated by model when that is non-nil.
func (p appProfile) fixed(alloc []int, model *core.Model) sweepCase {
	return sweepCase{
		alloc:  alloc,
		model:  model,
		config: func(seed uint64) (sim.Config, error) { return p.simConfig(alloc, seed) },
	}
}

// allocationSweep is the spec Figures 6 and 7 share: the application's
// six fixed allocations, each an independent 10-minute run with
// re-balancing disabled, next to the model's estimate.
func allocationSweep(app App, o Options) ([]Point, appProfile, error) {
	p, err := profileFor(app)
	if err != nil {
		return nil, p, err
	}
	model, err := p.model()
	if err != nil {
		return nil, p, err
	}
	var cases []sweepCase
	for _, alloc := range p.allocations() {
		cases = append(cases, p.fixed(alloc, model))
	}
	points, err := measure(cases, sweepPaper, o)
	return points, p, err
}

// Fig6Result is Figure 6 for one application: the measured mean and
// standard deviation of the total sojourn time per resource configuration.
type Fig6Result struct {
	App    App
	Points []Point
	// Recommended is the allocation the passively running DRS recommends.
	Recommended []int
	// BestIsRecommended reports the paper's headline claim: the
	// recommendation achieves the smallest measured mean.
	BestIsRecommended bool
}

// RunFigure6 measures the six fixed allocations of Fig. 6 and checks that
// DRS's recommendation wins.
func RunFigure6(app App, o Options) (Fig6Result, error) {
	points, p, err := allocationSweep(app, o)
	if err != nil {
		return Fig6Result{}, err
	}
	return figure6(app, points, p.recommended), nil
}

// figure6 derives Fig. 6's claim from the allocation sweep.
func figure6(app App, points []Point, recommended []int) Fig6Result {
	best := points[0]
	for _, pt := range points {
		if pt.MeanMillis < best.MeanMillis {
			best = pt
		}
	}
	return Fig6Result{
		App: app, Points: points, Recommended: recommended,
		BestIsRecommended: slices.Equal(best.Alloc, recommended),
	}
}

// Print renders the figure as a table.
func (r Fig6Result) Print(w io.Writer) {
	header(w, fmt.Sprintf("Figure 6 (%s): measured sojourn time per allocation, re-balancing disabled", r.App))
	fmt.Fprintf(w, "%-12s %12s %12s\n", "allocation", "mean (ms)", "stddev (ms)")
	for _, pt := range r.Points {
		label := allocString(pt.Alloc)
		if slices.Equal(pt.Alloc, r.Recommended) {
			label += "*"
		}
		fmt.Fprintf(w, "%-12s %12s %12s\n", label, fmtMillis(pt.MeanMillis), fmtMillis(pt.StdMillis))
	}
	fmt.Fprintf(w, "DRS recommendation achieves the best mean: %v\n", r.BestIsRecommended)
}

// Fig7Result is Figure 7 for one application: the model's estimate against
// the measured value, one scatter point per Fig. 6 allocation.
type Fig7Result struct {
	App    App
	Points []Point
	// Spearman is the rank correlation between estimates and measurements;
	// 1 means the ordering is perfectly preserved (the paper's "strict
	// monotonicity").
	Spearman float64
	// Pearson quantifies the linear relation (supports the paper's remark
	// that a regression could recover true latency from the estimate).
	Pearson float64
	// MeanRatio is measured/estimated averaged over allocations — ~1 for
	// the computation-intensive VLD, several-fold for the data-intensive FPD.
	MeanRatio float64
}

// RunFigure7 compares the model estimate with the simulator measurement for
// each Fig. 6 allocation.
func RunFigure7(app App, o Options) (Fig7Result, error) {
	points, _, err := allocationSweep(app, o)
	if err != nil {
		return Fig7Result{}, err
	}
	return figure7(app, points)
}

// figure7 derives Fig. 7's claims from the allocation sweep.
func figure7(app App, points []Point) (res Fig7Result, err error) {
	res = Fig7Result{App: app, Points: points}
	var ests, meas []float64
	for _, pt := range points {
		ests = append(ests, pt.EstimatedMillis)
		meas = append(meas, pt.MeanMillis)
		res.MeanRatio += pt.MeanMillis / pt.EstimatedMillis
	}
	res.MeanRatio /= float64(len(points))
	if res.Spearman, err = stats.Spearman(ests, meas); err != nil {
		return Fig7Result{}, err
	}
	if res.Pearson, err = stats.Pearson(ests, meas); err != nil {
		return Fig7Result{}, err
	}
	return res, nil
}

// Print renders the scatter as a table plus the correlation summary.
func (r Fig7Result) Print(w io.Writer) {
	header(w, fmt.Sprintf("Figure 7 (%s): estimated vs measured sojourn time", r.App))
	fmt.Fprintf(w, "%-12s %15s %15s %8s\n", "allocation", "estimated (ms)", "measured (ms)", "ratio")
	for _, pt := range r.Points {
		fmt.Fprintf(w, "%-12s %15s %15s %8.2f\n",
			allocString(pt.Alloc), fmtMillis(pt.EstimatedMillis), fmtMillis(pt.MeanMillis),
			pt.MeanMillis/pt.EstimatedMillis)
	}
	fmt.Fprintf(w, "Spearman rank correlation: %.3f (1 = ordering preserved)\n", r.Spearman)
	fmt.Fprintf(w, "Pearson correlation:       %.3f\n", r.Pearson)
	fmt.Fprintf(w, "mean measured/estimated:   %.2fx\n", r.MeanRatio)
}

// Fig8Result is the synthetic-chain sweep: Points[i] is the chain at
// TotalCPUSeconds[i] of total bolt CPU time per tuple, and the degree of
// underestimation at each is its MeanMillis/EstimatedMillis.
type Fig8Result struct {
	TotalCPUSeconds []float64
	Points          []Point
}

// RunFigure8 sweeps the synthetic 3-bolt chain over the paper's CPU-time
// range.
func RunFigure8(o Options) (Fig8Result, error) {
	res := Fig8Result{TotalCPUSeconds: synth.Workloads()}
	var cases []sweepCase
	for _, cpu := range res.TotalCPUSeconds {
		model, err := synth.Model(cpu)
		if err != nil {
			return Fig8Result{}, err
		}
		cases = append(cases, sweepCase{
			alloc:  synth.Allocation(),
			model:  model,
			config: func(seed uint64) (sim.Config, error) { return synth.SimConfig(cpu, seed) },
		})
	}
	var err error
	res.Points, err = measure(cases, fig8Paper, o)
	return res, err
}

// Print renders the sweep.
func (r Fig8Result) Print(w io.Writer) {
	header(w, "Figure 8: measured/estimated ratio vs total bolt CPU time (synthetic chain)")
	fmt.Fprintf(w, "%15s %15s %15s %10s\n", "total CPU (ms)", "estimated (ms)", "measured (ms)", "ratio")
	for i, pt := range r.Points {
		fmt.Fprintf(w, "%15.3f %15s %15s %10.1f\n",
			r.TotalCPUSeconds[i]*1e3, fmtMillis(pt.EstimatedMillis), fmtMillis(pt.MeanMillis),
			pt.MeanMillis/pt.EstimatedMillis)
	}
	fmt.Fprintln(w, "The underestimation (ratio) shrinks as computation dominates the network.")
}

// sheddingPolicies names the shedding study's three cases, in order.
var sheddingPolicies = []string{"overloaded", "shedding", "drs"}

// SheddingResult compares the three responses to overload the paper's
// introduction contrasts, Points[i] being sheddingPolicies[i]: doing
// nothing (queues grow without bound), load shedding (bounded queues drop
// tuples — latency contained, results wrong), and DRS's answer (provision
// and place enough processors).
type SheddingResult struct {
	Points []Point
	// SheddingLosesData and DRSKeepsDataAndLatency summarize the claims.
	SheddingLosesData      bool
	DRSKeepsDataAndLatency bool
}

// RunShedding drives the VLD profile at an under-provisioned allocation
// with (a) unbounded queues, (b) bounded queues that shed, and (c) the
// allocation DRS would choose with adequate resources.
func RunShedding(o Options) (SheddingResult, error) {
	p, err := profileFor(VLD)
	if err != nil {
		return SheddingResult{}, err
	}
	under := []int{6, 7, 1} // extract needs ~6.9 at peak; queues build
	cases := []sweepCase{p.fixed(under, nil), p.fixed(under, nil), p.fixed(p.recommended, nil)}
	cases[1].maxQueue = 20
	var res SheddingResult
	if res.Points, err = measure(cases, sweepPaper, o); err != nil {
		return SheddingResult{}, err
	}
	overloaded, shedding, drs := res.Points[0], res.Points[1], res.Points[2]
	res.SheddingLosesData = shedding.DropRate > 0.01 && shedding.MeanMillis < overloaded.MeanMillis
	res.DRSKeepsDataAndLatency = drs.DropRate == 0 && drs.MeanMillis < overloaded.MeanMillis &&
		drs.MeanMillis < shedding.MeanMillis*3 // latency in the same regime as shedding, with all results
	return res, nil
}

// Print renders the study.
func (r SheddingResult) Print(w io.Writer) {
	header(w, "Overload study: do nothing vs load shedding vs DRS (VLD profile)")
	fmt.Fprintf(w, "%-12s %12s %14s %12s\n", "policy", "alloc", "mean (ms)", "drop rate")
	for i, pt := range r.Points {
		fmt.Fprintf(w, "%-12s %12s %14.0f %11.1f%%\n",
			sheddingPolicies[i], allocString(pt.Alloc), pt.MeanMillis, pt.DropRate*100)
	}
	fmt.Fprintf(w, "shedding bounds latency only by discarding input: %v\n", r.SheddingLosesData)
	fmt.Fprintf(w, "DRS bounds latency with zero loss:                %v\n", r.DRSKeepsDataAndLatency)
}
