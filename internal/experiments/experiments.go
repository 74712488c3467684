// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) on top of the simulator substrate. A figure is a value
// over one of two runners — the steady-state sweep (measure) and the arc
// (runArc), where every supervisor leases its slots from a
// cluster.Scheduler, alone for Figures 9-10 and the baseline and shared
// for the multi-tenant rows: a spec the runner executes on the figure's
// paper timeline, the claims derived from the runner's result, and a
// Print renderer that writes the same rows/series the paper plots. cmd/drs-experiments and the
// repository-level benchmarks are thin wrappers around this package.
//
// Absolute numbers differ from the paper (their substrate is a 6-machine
// Storm cluster; ours is a calibrated discrete-event simulation), but the
// shapes are reproduced: which allocation wins, the monotone relation of
// estimates to measurements, the decay of underestimation with CPU share,
// convergence after re-balancing, and the cost asymmetry of scaling out
// versus in. EXPERIMENTS.md records paper-vs-measured side by side.
package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/drs-repro/drs/internal/apps/fpd"
	"github.com/drs-repro/drs/internal/apps/vld"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/obs"
	"github.com/drs-repro/drs/internal/sim"
)

// App selects which test application an experiment runs.
type App string

// The two applications of §V-A.
const (
	VLD App = "vld"
	FPD App = "fpd"
)

// appProfile abstracts the two calibrated applications.
type appProfile struct {
	model       func() (*core.Model, error)
	simConfig   func(alloc []int, seed uint64) (sim.Config, error)
	allocations func() [][]int
	recommended []int
	names       []string
}

func profileFor(app App) (appProfile, error) {
	switch app {
	case VLD:
		return appProfile{
			model:       vld.Model,
			simConfig:   vld.SimConfig,
			allocations: vld.Figure6Allocations,
			recommended: vld.RecommendedAllocation(),
			names:       vld.OperatorNames(),
		}, nil
	case FPD:
		return appProfile{
			model:       fpd.Model,
			simConfig:   fpd.SimConfig,
			allocations: fpd.Figure6Allocations,
			recommended: fpd.RecommendedAllocation(),
			names:       fpd.OperatorNames(),
		}, nil
	default:
		return appProfile{}, fmt.Errorf("experiments: unknown app %q", app)
	}
}

// Options tune an experiment; the zero value is the paper's evaluation.
type Options struct {
	// Duration is the run's horizon in simulated seconds. Zero means the
	// paper's timeline (10-minute steady-state runs, 27-minute controller
	// runs, a scenario's own length); any positive value scales the
	// experiment's whole timeline — warm-up, enable point, surge and
	// outage windows — to that horizon. Benchmarks and quick tests shrink
	// runs this way.
	Duration float64
	// Seed feeds the simulations (default 1).
	Seed uint64
	// DecisionLog, when non-nil, receives every control-plane verdict the
	// run makes — scheduler arbitration and preemptions (with their
	// Appendix-B inputs), per-round shed plans and supervisor re-fits —
	// stamped with simulated time, so a replayed scenario's decisions can
	// be audited against its books. Every arc emits — the multi-tenant
	// rows and the one-tenant Figures 9-10 and baseline; the other rows
	// ignore it.
	//
	//checkdoc:testonly test hook: the chaos reconciliation test audits every simulated decision against the phase books through it
	DecisionLog *obs.Log
}

// seed is the base simulation seed.
func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// scale is the one place a run's length is decided: the factor that maps
// an experiment's paper timeline, horizon seconds long, onto o.
func (o Options) scale(horizon float64) float64 {
	if o.Duration <= 0 {
		return 1
	}
	return o.Duration / horizon
}

// timeline is an experiment's schedule in simulated seconds, stated as
// the paper ran it; the marks an experiment does not use stay zero.
type timeline struct {
	// horizon ends the run.
	horizon float64
	// warmup: steady-state runs discard completions before it.
	warmup float64
	// enableAt: supervised runs only measure before it, and decide from it on.
	enableAt float64
	// stepFrom and stepUntil bound the load step.
	stepFrom, stepUntil float64
	// killAt starts the machine outage, killDown is its length.
	killAt, killDown float64
}

// at scales every mark of the paper timeline to o.
func (tl timeline) at(o Options) timeline {
	f := o.scale(tl.horizon)
	return timeline{
		horizon: tl.horizon * f, warmup: tl.warmup * f, enableAt: tl.enableAt * f,
		stepFrom: tl.stepFrom * f, stepUntil: tl.stepUntil * f,
		killAt: tl.killAt * f, killDown: tl.killDown * f,
	}
}

// controlInterval is the control period of every supervised run, in
// simulated seconds: one measurement pull and one supervisor round.
const controlInterval = 10.0

// allocString renders (x1:x2:x3) like the paper's x-axis labels.
func allocString(k []int) string {
	s := "("
	for i, v := range k {
		if i > 0 {
			s += ":"
		}
		s += fmt.Sprintf("%d", v)
	}
	return s + ")"
}

// fmtMillis renders a millisecond quantity compactly.
func fmtMillis(ms float64) string {
	if ms >= 100 {
		return fmt.Sprintf("%.0f", ms)
	}
	return fmt.Sprintf("%.1f", ms)
}

// secondsToDuration converts simulated seconds to a duration.
func secondsToDuration(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}

// header writes a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for range title {
		fmt.Fprint(w, "-")
	}
	fmt.Fprintln(w)
}
