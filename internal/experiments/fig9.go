package experiments

import (
	"fmt"
	"io"
	"math"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/sim"
)

// Fig9Curve is one line of Figure 9: an initial allocation, its per-minute
// mean sojourn series, and the re-scheduling events DRS applied.
type Fig9Curve struct {
	Initial     []int
	Series      []sim.SeriesPoint
	Transitions []Transition
	// FinalAlloc is the allocation in force at the end of the run.
	FinalAlloc []int
}

// Fig9Result is Figure 9 for one application.
type Fig9Result struct {
	App    App
	Curves []Fig9Curve
	// Converged reports the paper's claim: after re-balancing is enabled
	// every curve ends on the same (optimal) allocation.
	Converged bool
	// Recommended is that allocation.
	Recommended []int
}

// Figure9Initials returns the paper's three initial allocations per app.
func Figure9Initials(app App) [][]int {
	switch app {
	case VLD:
		return [][]int{{8, 12, 2}, {11, 9, 2}, {10, 11, 1}}
	case FPD:
		return [][]int{{8, 12, 2}, {7, 13, 2}, {6, 13, 3}}
	default:
		return nil
	}
}

// RunFigure9 reproduces the re-balancing experiment: 27 minutes per curve,
// with DRS passive for the first 13 minutes and active from minute 14 on
// (Kmax fixed at 22 — Program (4) mode).
func RunFigure9(app App, o Options) (Fig9Result, error) {
	o = o.withDefaults()
	p, err := profileFor(app)
	if err != nil {
		return Fig9Result{}, err
	}
	duration := 27 * 60.0
	enableAt := 13 * 60.0
	if o.Duration != 600 { // scaled-down run (benchmarks)
		duration = o.Duration
		enableAt = duration / 2
	}
	res := Fig9Result{App: app, Recommended: p.recommended, Converged: true}
	for i, initial := range Figure9Initials(app) {
		pool, err := cluster.PaperPool(5)
		if err != nil {
			return Fig9Result{}, err
		}
		s, transitions, err := runControlled(controlLoopConfig{
			profile:  p,
			initial:  initial,
			pool:     pool,
			ctrl:     core.ControllerConfig{Mode: core.ModeMinLatency, Kmax: 22, MinGain: 0.05},
			enableAt: enableAt,
			duration: duration,
			interval: 10,
			seed:     o.Seed + uint64(i),
		})
		if err != nil {
			return Fig9Result{}, err
		}
		curve := Fig9Curve{
			Initial:     initial,
			Series:      s.Series(),
			Transitions: transitions,
			FinalAlloc:  s.Allocation(),
		}
		if !allocEq(curve.FinalAlloc, p.recommended) {
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
		for _, pt := range c.Series {
			if math.IsNaN(pt.MeanSojourn) {
				fmt.Fprint(w, "    - ")
				continue
			}
			fmt.Fprintf(w, "%5.0f ", pt.MeanSojourn*1e3)
		}
		fmt.Fprintln(w, " (ms)")
		for _, tr := range c.Transitions {
			fmt.Fprintf(w, "  t=%4.0fs %-10s -> %s (pause %.1fs): %s\n",
				tr.AtSeconds, tr.Action, allocString(tr.Alloc), tr.PauseSeconds, tr.Reason)
		}
	}
	fmt.Fprintf(w, "\nall curves converged to DRS's recommendation %s: %v\n",
		allocString(r.Recommended), r.Converged)
}
