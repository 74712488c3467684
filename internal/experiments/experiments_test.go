package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/drs-repro/drs/internal/core"
)

func TestProfileForUnknownApp(t *testing.T) {
	if _, err := profileFor(App("nope")); err == nil {
		t.Error("unknown app should error")
	}
	if _, err := RunFigure6(App("nope"), Options{}); err == nil {
		t.Error("RunFigure6 with unknown app should error")
	}
	if _, err := RunFigure7(App("nope"), Options{}); err == nil {
		t.Error("RunFigure7 with unknown app should error")
	}
	if _, err := RunFigure10(Fig10Experiment("x"), Options{}); err == nil {
		t.Error("unknown Fig. 10 experiment should error")
	}
}

// TestOptionsDefaults pins the one scaling rule: the zero Options run the
// paper's timeline, and any positive Duration — 600 included, which used to
// be a sentinel for "paper timeline" — scales every mark to that horizon.
func TestOptionsDefaults(t *testing.T) {
	if got := (Options{}).seed(); got != 1 {
		t.Errorf("default seed = %d", got)
	}
	if got := (Options{Seed: 9}).seed(); got != 9 {
		t.Errorf("seed override lost: %d", got)
	}
	for _, tc := range []struct {
		o                         Options
		paper                     timeline
		horizon, warmup, enableAt float64
	}{
		{Options{}, sweepPaper, 600, 60, 0},
		{Options{Duration: 100}, sweepPaper, 100, 10, 0},
		{Options{}, contentionPaper, 1620, 0, 180},
		{Options{Duration: 1620}, contentionPaper, 1620, 0, 180},
		{Options{Duration: 600}, contentionPaper, 600, 0, 600 / 9.0},
		{Options{Duration: 601}, contentionPaper, 601, 0, 601 / 9.0},
	} {
		tl := tc.paper.at(tc.o)
		if math.Abs(tl.horizon-tc.horizon) > 1e-9 || math.Abs(tl.warmup-tc.warmup) > 1e-9 || math.Abs(tl.enableAt-tc.enableAt) > 1e-9 {
			t.Errorf("%+v on %+v: got %+v, want horizon %g warm-up %g enable point %g",
				tc.o, tc.paper, tl, tc.horizon, tc.warmup, tc.enableAt)
		}
	}
	// End to end: ten simulated minutes of contention are ten one-minute
	// buckets, not the 27-minute paper arc.
	r, err := RunContention(Options{Duration: 600})
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range r.Tenants {
		if len(ts.Series) != 10 {
			t.Errorf("Duration 600: %s has %d one-minute buckets, want 10", ts.Name, len(ts.Series))
		}
	}
}

func TestAllocString(t *testing.T) {
	if got := allocString([]int{10, 11, 1}); got != "(10:11:1)" {
		t.Errorf("allocString = %q", got)
	}
}

func TestFigure6VLD(t *testing.T) {
	if testing.Short() {
		t.Skip("full 10-minute-per-allocation simulation")
	}
	r := fig6(t, VLD)
	if len(r.Points) != 6 {
		t.Fatalf("rows = %d, want 6", len(r.Points))
	}
	if !r.BestIsRecommended {
		t.Errorf("starred allocation did not win: %+v", r.Points)
	}
	// The paper's second observation: the recommendation also has the
	// smallest standard deviation (least oscillation).
	var starred Point
	minStd := math.Inf(1)
	for _, row := range r.Points {
		if slices.Equal(row.Alloc, r.Recommended) {
			starred = row
		}
		if row.StdMillis < minStd {
			minStd = row.StdMillis
		}
	}
	if starred.StdMillis > minStd*1.05 {
		t.Errorf("starred stddev %.1f not within 5%% of best %.1f", starred.StdMillis, minStd)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "(10:11:1)*") {
		t.Errorf("printout missing starred allocation:\n%s", sb.String())
	}
}

func TestFigure6FPD(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	if r := fig6(t, FPD); !r.BestIsRecommended {
		t.Errorf("starred allocation did not win: %+v", r.Points)
	}
}

func TestFigure7BothApps(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	for _, app := range []App{VLD, FPD} {
		r := fig7(t, app)
		if r.Spearman < 0.8 {
			t.Errorf("%s: Spearman %.3f, want >= 0.8 (ordering mostly preserved)", app, r.Spearman)
		}
		if r.MeanRatio <= 1 {
			t.Errorf("%s: mean measured/estimated %.2f, want > 1 (model never overestimates here)", app, r.MeanRatio)
		}
		switch app {
		case VLD:
			if r.MeanRatio > 1.4 {
				t.Errorf("VLD ratio %.2f too large: should be computation-dominated", r.MeanRatio)
			}
		case FPD:
			if r.MeanRatio < 2.5 {
				t.Errorf("FPD ratio %.2f too small: should be network-dominated", r.MeanRatio)
			}
		}
		var sb strings.Builder
		r.Print(&sb)
		if !strings.Contains(sb.String(), "Spearman") {
			t.Error("printout missing correlation summary")
		}
	}
}

func TestFigure7OrderingSeparatesApps(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	vldRes, fpdRes := fig7(t, VLD), fig7(t, FPD)
	if fpdRes.MeanRatio <= vldRes.MeanRatio*1.5 {
		t.Errorf("FPD underestimation (%.2fx) should far exceed VLD's (%.2fx)",
			fpdRes.MeanRatio, vldRes.MeanRatio)
	}
}

func TestFigure8(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	r := fig8(t)
	if len(r.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(r.Points))
	}
	ratio := func(i int) float64 { return r.Points[i].MeanMillis / r.Points[i].EstimatedMillis }
	if ratio(0) < 20 {
		t.Errorf("lightest-workload ratio %.1f, want tens (paper shows ~60-100)", ratio(0))
	}
	if last := ratio(len(r.Points) - 1); last > 1.5 {
		t.Errorf("heaviest-workload ratio %.2f, want near 1", last)
	}
	for i := 1; i < len(r.Points); i++ {
		if ratio(i) >= ratio(i-1) {
			t.Errorf("ratio not decreasing: %+v", r.Points)
		}
	}
}

func TestFigure9VLDConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("27-minute controller simulation")
	}
	r := fig9(t, VLD)
	if len(r.Curves) != 3 {
		t.Fatalf("curves = %d, want 3", len(r.Curves))
	}
	if !r.Converged {
		t.Fatalf("not all curves converged to %v", r.Recommended)
	}
	for _, c := range r.Curves {
		optimalStart := slices.Equal(c.Initial, r.Recommended)
		if optimalStart && len(c.Transitions) != 0 {
			t.Errorf("optimal initial %v should never rebalance; got %d transitions",
				c.Initial, len(c.Transitions))
		}
		if !optimalStart && len(c.Transitions) == 0 {
			t.Errorf("non-optimal initial %v never rebalanced", c.Initial)
		}
		for _, tr := range c.Transitions {
			if simSeconds(tr.At) < 13*60 {
				t.Errorf("transition at %.0fs while re-balancing was disabled", simSeconds(tr.At))
			}
		}
	}
	// The paper's claim: after re-balancing, the formerly-bad curves drop.
	for _, c := range r.Curves {
		if slices.Equal(c.Initial, r.Recommended) || len(c.Transitions) == 0 {
			continue
		}
		before := meanSojourn(window(c.Series, 5*60, 13*60))
		after := meanSojourn(window(c.Series, 17*60, 27*60))
		if !(after < before) {
			t.Errorf("initial %v: sojourn did not improve after re-balancing (%.0fms -> %.0fms)",
				c.Initial, before*1e3, after*1e3)
		}
	}
}

func TestFigure9FPDConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("27-minute controller simulation")
	}
	if r := fig9(t, FPD); !r.Converged {
		t.Fatalf("not all FPD curves converged to %v", r.Recommended)
	}
}

func TestFigure10ExpA(t *testing.T) {
	if testing.Short() {
		t.Skip("27-minute controller simulation")
	}
	r := fig10(t, ExpA)
	if r.FinalMachines != 5 || r.FinalKmax != 22 {
		t.Errorf("final pool = %d machines / Kmax %d, want 5 / 22", r.FinalMachines, r.FinalKmax)
	}
	if !slices.Equal(r.FinalAlloc, []int{10, 11, 1}) {
		t.Errorf("final alloc = %v, want (10:11:1)", r.FinalAlloc)
	}
	if !r.MeetsTargetAfter {
		t.Error("steady state after scale-out violates Tmax")
	}
	if len(r.Transitions) == 0 || len(r.Transitions) > 4 {
		t.Errorf("transition count = %d, want a small number (no flapping)", len(r.Transitions))
	}
	sawScaleOut := false
	for _, tr := range r.Transitions {
		if tr.Action == core.ActionScaleOut {
			sawScaleOut = true
		}
		if tr.Action == core.ActionScaleIn {
			t.Error("ExpA should never scale in")
		}
	}
	if !sawScaleOut {
		t.Error("ExpA never scaled out")
	}
}

func TestFigure10ExpB(t *testing.T) {
	if testing.Short() {
		t.Skip("27-minute controller simulation")
	}
	r := fig10(t, ExpB)
	if r.FinalMachines != 4 || r.FinalKmax != 17 {
		t.Errorf("final pool = %d machines / Kmax %d, want 4 / 17", r.FinalMachines, r.FinalKmax)
	}
	if !slices.Equal(r.FinalAlloc, []int{8, 8, 1}) {
		t.Errorf("final alloc = %v, want (8:8:1)", r.FinalAlloc)
	}
	if !r.MeetsTargetAfter {
		t.Error("steady state after scale-in violates Tmax")
	}
	if len(r.Transitions) == 0 || len(r.Transitions) > 4 {
		t.Errorf("transition count = %d, want a small number (no flapping)", len(r.Transitions))
	}
	for _, tr := range r.Transitions {
		if tr.Action == core.ActionScaleOut {
			t.Error("ExpB should never scale out")
		}
	}
}

// TestFigureArcsAudited: Figs. 9–10 and the baseline run as one-tenant
// arcs on the paper's pool, so each run carries the arc's audit — no
// round leases past capacity, no placement violation — and the Program (4)
// runs (fig9, baseline) hold their 22-slot grant in every round.
func TestFigureArcsAudited(t *testing.T) {
	if testing.Short() {
		t.Skip("controller simulations")
	}
	check := func(name string, r Run, grant int) {
		t.Helper()
		if len(r.Rounds) == 0 || r.MaxLeaseOverCapacity > 0 || r.PlacementViolations > 0 {
			t.Errorf("%s: %d rounds, lease over capacity by %d, %d placement violations",
				name, len(r.Rounds), r.MaxLeaseOverCapacity, r.PlacementViolations)
		}
		for _, round := range r.Rounds {
			if grant > 0 && round.Grants[0] != grant {
				t.Errorf("%s: t=%.0fs grant %d, want %d in every round", name, round.AtSeconds, round.Grants[0], grant)
				break
			}
		}
	}
	for _, app := range []App{VLD, FPD} {
		for _, c := range fig9(t, app).Curves {
			check(fmt.Sprintf("fig9 %s %s", app, allocString(c.Initial)), c, 22)
		}
		for _, b := range baseline(t, app).Runs {
			check(fmt.Sprintf("baseline %s %s", app, b.Policy), b.Run, 22)
		}
	}
	for _, exp := range []Fig10Experiment{ExpA, ExpB} {
		check("fig10 "+string(exp), fig10(t, exp).Run, 0)
	}
}

func TestTable2(t *testing.T) {
	r, err := RunTable2(500)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(r.Rows))
	}
	// Scheduling cost must grow with Kmax (the paper reports ~linear).
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.SchedulingMillis <= first.SchedulingMillis {
		t.Errorf("scheduling cost not increasing: %v -> %v", first.SchedulingMillis, last.SchedulingMillis)
	}
	// And stay sub-millisecond-ish per call, as in Table II.
	if last.SchedulingMillis > 5 {
		t.Errorf("scheduling at Kmax=192 costs %.3fms, want well under 5ms", last.SchedulingMillis)
	}
	// Measurement processing is independent of Kmax.
	if last.MeasurementMillis > 10*first.MeasurementMillis+0.05 {
		t.Errorf("measurement cost should be flat: %.4f vs %.4f", first.MeasurementMillis, last.MeasurementMillis)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "Scheduling") {
		t.Error("printout missing rows")
	}
}

func TestBaselineComparisonVLD(t *testing.T) {
	if testing.Short() {
		t.Skip("controller simulation")
	}
	r := baseline(t, VLD)
	if len(r.Runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(r.Runs))
	}
	drs, base := r.Runs[0], r.Runs[1]
	if !slices.Equal(drs.FinalAlloc, []int{10, 11, 1}) {
		t.Errorf("DRS final alloc = %v, want (10:11:1)", drs.FinalAlloc)
	}
	if n := len(drs.Transitions); n != 1 {
		t.Errorf("DRS needed %d reconfigurations, want exactly 1 (one-shot)", n)
	}
	if drs.SteadyMeanMillis > base.SteadyMeanMillis*1.02 {
		t.Errorf("DRS steady %.1fms worse than threshold baseline %.1fms",
			drs.SteadyMeanMillis, base.SteadyMeanMillis)
	}
	if !r.DRSWins {
		t.Errorf("DRSWins = false: %+v", r.Runs)
	}
}

func TestBaselineThresholdBlindToFPDMisallocation(t *testing.T) {
	if testing.Short() {
		t.Skip("controller simulation")
	}
	// The instructive case: at (8:12:2) all FPD utilizations are in-band,
	// so the reactive policy never acts — yet DRS finds a strictly better
	// allocation. Balanced utilization is not minimal latency.
	r := baseline(t, FPD)
	drs, base := r.Runs[0], r.Runs[1]
	if n := len(base.Transitions); n != 0 {
		t.Logf("threshold policy acted %d times (still acceptable)", n)
	}
	if !slices.Equal(drs.FinalAlloc, []int{6, 13, 3}) {
		t.Errorf("DRS final alloc = %v, want (6:13:3)", drs.FinalAlloc)
	}
	if drs.SteadyMeanMillis >= base.SteadyMeanMillis {
		t.Errorf("DRS steady %.1fms not better than blind baseline %.1fms",
			drs.SteadyMeanMillis, base.SteadyMeanMillis)
	}
}

func TestFigure6VLDRobustAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed simulation")
	}
	// The headline claim must not depend on the seed: the starred
	// allocation wins Fig. 6 (VLD) for several independent runs.
	for _, seed := range []uint64{2, 3, 5} {
		r, err := RunFigure6(VLD, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !r.BestIsRecommended {
			t.Errorf("seed %d: starred allocation did not win: %+v", seed, r.Points)
		}
	}
}
