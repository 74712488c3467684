package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/sim"
)

// runs.go holds the three single-tenant figures: Figures 9 and 10 and the
// DRS-vs-threshold baseline are each a list of one-tenant arcs on the
// paper's pool and timeline, the claims derived from the runs, and a
// renderer.

// controllerPaper is Figs. 9 and 10's timeline: 27 minutes, DRS passive
// for the first 13 and active from minute 14 on. The baseline comparison
// runs 20 minutes with the policy enabled after the first.
var (
	controllerPaper = timeline{horizon: 27 * 60, enableAt: 13 * 60}
	baselinePaper   = timeline{horizon: 20 * 60, enableAt: 60}
)

// minLatencyCtrl is Program (4) mode with Kmax fixed at the paper pool's 22.
var minLatencyCtrl = core.ControllerConfig{Mode: core.ModeMinLatency, Kmax: 22, MinGain: 0.05}

// Run is one single-tenant figure run: the one-tenant arc, its tenant's
// account, and the allocation and pool that bracket it.
type Run struct {
	Arc
	ArcTenant
	// Initial is the allocation the run started from.
	Initial []int
	// InitialMachines and FinalMachines bracket the live pool; FinalKmax
	// is its closing capacity (InitialGrant its opening one).
	InitialMachines, FinalMachines, FinalKmax int
}

// runSolo runs one application alone on the paper's pool, machines of it
// live at the start: a one-tenant arc whose lease starts at the initial
// allocation's total and keeps one slot per operator. ts carries the
// stepper and the seed offset. The controller only measures before
// tl.enableAt.
func runSolo(p appProfile, initial []int, machines int, ts arcTenantSpec, tl timeline, o Options) (Run, error) {
	total := 0
	for _, k := range initial {
		total += k
	}
	ts.lease = cluster.TenantConfig{Name: "app", MinSlots: len(initial), InitialSlots: total}
	ts.names = p.names
	ts.build = func(seed uint64) (sim.Config, error) { return p.simConfig(initial, seed) }
	arc, err := runArc(arcSpec{
		name:    "figure",
		pool:    func() (*cluster.Pool, error) { return cluster.PaperPool(machines) },
		tenants: []arcTenantSpec{ts},
	}, tl, o)
	if err != nil {
		return Run{}, err
	}
	run := Run{Arc: arc, ArcTenant: arc.Tenants[0], Initial: initial,
		InitialMachines: machines, FinalMachines: machines, FinalKmax: arc.Tenants[0].InitialGrant}
	if n := len(arc.Rounds); n > 0 {
		run.FinalMachines, run.FinalKmax = arc.Rounds[n-1].Machines, arc.Rounds[n-1].Capacity
	}
	return run, nil
}

// window returns the buckets of a per-minute series whose start lies in
// [from, until).
func window(series []sim.SeriesPoint, from, until float64) []sim.SeriesPoint {
	var out []sim.SeriesPoint
	for _, pt := range series {
		if pt.Start >= from && pt.Start < until {
			out = append(out, pt)
		}
	}
	return out
}

// meanSojourn averages the buckets that saw completions, in seconds; NaN
// when none did.
func meanSojourn(series []sim.SeriesPoint) float64 {
	sum, n := 0.0, 0
	for _, pt := range series {
		if !math.IsNaN(pt.MeanSojourn) {
			sum += pt.MeanSojourn
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// printMinutes renders a per-minute sojourn series in milliseconds, a
// dash for minutes without completions.
func printMinutes(w io.Writer, series []sim.SeriesPoint) {
	for _, pt := range series {
		if math.IsNaN(pt.MeanSojourn) {
			fmt.Fprint(w, "    - ")
			continue
		}
		fmt.Fprintf(w, "%5.0f ", pt.MeanSojourn*1e3)
	}
}

// Fig9Result is Figure 9 for one application: one curve per initial
// allocation.
type Fig9Result struct {
	App    App
	Curves []Run
	// Converged reports the paper's claim: after re-balancing is enabled
	// every curve ends on the same (optimal) allocation.
	Converged bool
	// Recommended is that allocation.
	Recommended []int
}

// fig9Initials are the paper's three initial allocations per app.
var fig9Initials = map[App][][]int{
	VLD: {{8, 12, 2}, {11, 9, 2}, {10, 11, 1}},
	FPD: {{8, 12, 2}, {7, 13, 2}, {6, 13, 3}},
}

// RunFigure9 reproduces the re-balancing experiment, one 27-minute run
// per initial allocation.
func RunFigure9(app App, o Options) (Fig9Result, error) {
	p, err := profileFor(app)
	if err != nil {
		return Fig9Result{}, err
	}
	res := Fig9Result{App: app, Recommended: p.recommended, Converged: true}
	for i, initial := range fig9Initials[app] {
		curve, err := runSolo(p, initial, 5, arcTenantSpec{ctrl: minLatencyCtrl, seedOffset: uint64(i)}, controllerPaper.at(o), o)
		if err != nil {
			return Fig9Result{}, err
		}
		if !slices.Equal(curve.FinalAlloc, p.recommended) {
			res.Converged = false
		}
		res.Curves = append(res.Curves, curve)
	}
	return res, nil
}

// Print renders the per-minute series and events.
func (r Fig9Result) Print(w io.Writer) {
	header(w, fmt.Sprintf("Figure 9 (%s): re-balancing disabled until minute 13, enabled from minute 14", r.App))
	for _, c := range r.Curves {
		fmt.Fprintf(w, "\ninitial %s -> final %s\n", allocString(c.Initial), allocString(c.FinalAlloc))
		fmt.Fprint(w, "minute: ")
		printMinutes(w, c.Series)
		fmt.Fprintln(w, " (ms)")
		for _, tr := range c.Transitions {
			fmt.Fprintf(w, "  t=%4.0fs %-10s -> %s (pause %.1fs): %s\n",
				simSeconds(tr.At), tr.Action, allocString(tr.Target), tr.Pause.Seconds(), tr.Reason)
		}
	}
	fmt.Fprintf(w, "\nall curves converged to DRS's recommendation %s: %v\n",
		allocString(r.Recommended), r.Converged)
}

// Fig10Experiment identifies the two runs of Figure 10.
type Fig10Experiment string

// ExpA scales out (tight Tmax, small initial pool); ExpB scales in (loose
// Tmax, large initial pool).
const (
	ExpA Fig10Experiment = "ExpA"
	ExpB Fig10Experiment = "ExpB"
)

// fig10Specs states the two experiments. The paper uses Tmax 500 ms and
// 1000 ms on its hardware; our calibrated VLD runs ~2x slower in absolute
// terms (EXPERIMENTS.md), so the constraints scale accordingly while
// preserving the relation
//
//	E[T](22 procs) < TmaxA < measured(17 procs)   (ExpA must grow)
//	measured(17 procs) < TmaxB·(1−slack)          (ExpB may shrink)
var fig10Specs = map[Fig10Experiment]struct {
	tmax     float64
	machines int
	initial  []int
}{
	ExpA: {tmax: 1.25, machines: 4, initial: []int{8, 8, 1}},  // Kmax 17
	ExpB: {tmax: 2.0, machines: 5, initial: []int{10, 11, 1}}, // Kmax 22
}

// Fig10Result is one curve of Figure 10.
type Fig10Result struct {
	Experiment Fig10Experiment
	Tmax       float64
	Run
	// MeetsTargetAfter reports whether the post-transition steady state
	// satisfies Tmax (the ExpA claim) — for ExpB the claim is that the
	// smaller pool still satisfies it.
	MeetsTargetAfter bool
}

// RunFigure10 reproduces the Tmax-driven scaling experiment on VLD: after
// the passive 13 minutes DRS in min-resource mode negotiates machines
// through the cluster pool.
func RunFigure10(exp Fig10Experiment, o Options) (Fig10Result, error) {
	spec, ok := fig10Specs[exp]
	if !ok {
		return Fig10Result{}, fmt.Errorf("experiments: unknown Fig. 10 experiment %q", exp)
	}
	p, err := profileFor(VLD)
	if err != nil {
		return Fig10Result{}, err
	}
	tl := controllerPaper.at(o)
	res := Fig10Result{Experiment: exp, Tmax: spec.tmax}
	res.Run, err = runSolo(p, spec.initial, spec.machines, arcTenantSpec{
		ctrl: core.ControllerConfig{
			Mode: core.ModeMinResource,
			Tmax: spec.tmax,
			// Hysteresis against flapping: near-tie rebalances are
			// suppressed, shrinking requires the tightened target to fit,
			// and scale-in may not push any operator near saturation
			// (where the exponential-service estimate is optimistic).
			MinGain:               0.05,
			ScaleInSlack:          0.35,
			MaxScaleInUtilization: 0.9,
			SlotsPerMachine:       5,
			ReservedSlots:         3,
		},
	}, tl, o)
	if err != nil {
		return Fig10Result{}, err
	}
	// Steady state after the last transition (skip 2 buckets of settling).
	lastAt := tl.enableAt
	if n := len(res.Transitions); n > 0 {
		lastAt = simSeconds(res.Transitions[n-1].At)
	}
	res.MeetsTargetAfter = meanSojourn(window(res.Series, lastAt+120, math.Inf(1))) <= res.Tmax
	return res, nil
}

// Print renders the curve and its scaling events.
func (r Fig10Result) Print(w io.Writer) {
	header(w, fmt.Sprintf("Figure 10 (%s): Tmax = %.0f ms, re-balancing enabled from minute 14", r.Experiment, r.Tmax*1e3))
	fmt.Fprintf(w, "initial: %d machines, Kmax=%d, %s\n", r.InitialMachines, r.InitialGrant, allocString(r.Initial))
	fmt.Fprintf(w, "final:   %d machines, Kmax=%d, %s\n", r.FinalMachines, r.FinalKmax, allocString(r.FinalAlloc))
	fmt.Fprint(w, "minute: ")
	printMinutes(w, r.Series)
	fmt.Fprintln(w, " (ms)")
	for _, tr := range r.Transitions {
		fmt.Fprintf(w, "  t=%4.0fs %-10s -> %s, Kmax=%d (pause %.1fs): %s\n",
			simSeconds(tr.At), tr.Action, allocString(tr.Target), tr.Kmax, tr.Pause.Seconds(), tr.Reason)
	}
	fmt.Fprintf(w, "steady state after scaling meets Tmax: %v\n", r.MeetsTargetAfter)
}

// BaselineRun is one policy's outcome in the DRS-vs-threshold comparison;
// each of its Transitions paid the rebalance pause.
type BaselineRun struct {
	Policy string
	Run
	// SteadyMeanMillis is the mean sojourn over the final third of the run.
	SteadyMeanMillis float64
}

// BaselineResult compares DRS's model-driven allocation against the
// utilization-threshold autoscaler on the same workload, same initial
// misallocation and same budget. Not a paper figure — it is the ablation
// motivating the queueing model over the obvious reactive policy.
type BaselineResult struct {
	App  App
	Runs []BaselineRun
	// DRSWins reports whether DRS settled at a steady latency at least as
	// good as the baseline's while needing at most a couple of moves.
	// Note the instructive failure mode of the baseline: from (8:12:2)
	// the FPD utilizations all sit inside the thresholds, so the reactive
	// policy sees nothing to fix — balanced utilization simply is not
	// minimal latency, which is the point of the queueing model.
	DRSWins bool
}

// baselinePolicies are the two steppers compared, DRS first.
var baselinePolicies = []struct {
	name    string
	stepper core.Stepper
}{
	{name: "drs"},
	{name: "threshold", stepper: core.ThresholdController{High: 0.8, Low: 0.35, Kmax: 22}},
}

// RunBaseline runs both policies on the application from a deliberately
// bad initial allocation.
func RunBaseline(app App, o Options) (BaselineResult, error) {
	p, err := profileFor(app)
	if err != nil {
		return BaselineResult{}, err
	}
	tl := baselinePaper.at(o)
	res := BaselineResult{App: app}
	for i, pol := range baselinePolicies {
		// (8:12:2) is a bad start for both the VLD and the FPD profile.
		run, err := runSolo(p, []int{8, 12, 2}, 5, arcTenantSpec{ctrl: minLatencyCtrl, stepper: pol.stepper, seedOffset: uint64(i) * 1000}, tl, o)
		if err != nil {
			return BaselineResult{}, err
		}
		res.Runs = append(res.Runs, BaselineRun{
			Policy: pol.name, Run: run,
			SteadyMeanMillis: meanSojourn(window(run.Series, tl.horizon*2/3, math.Inf(1))) * 1e3,
		})
	}
	drs, base := res.Runs[0], res.Runs[1]
	res.DRSWins = drs.SteadyMeanMillis <= base.SteadyMeanMillis*1.02 && len(drs.Transitions) <= 2
	return res, nil
}

// Print renders the comparison.
func (r BaselineResult) Print(w io.Writer) {
	header(w, fmt.Sprintf("Baseline comparison (%s): DRS vs utilization-threshold autoscaler", r.App))
	fmt.Fprintf(w, "%-10s %18s %14s %20s\n", "policy", "reconfigurations", "final alloc", "steady mean (ms)")
	for _, run := range r.Runs {
		fmt.Fprintf(w, "%-10s %18d %14s %20.1f\n",
			run.Policy, len(run.Transitions), allocString(run.FinalAlloc), run.SteadyMeanMillis)
	}
	for _, run := range r.Runs {
		for _, tr := range run.Transitions {
			fmt.Fprintf(w, "  [%s] t=%4.0fs -> %s: %s\n", run.Policy, simSeconds(tr.At), allocString(tr.Target), tr.Reason)
		}
	}
	fmt.Fprintf(w, "DRS at least as good with at most two moves: %v\n", r.DRSWins)
}
