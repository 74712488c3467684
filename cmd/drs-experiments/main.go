// Command drs-experiments regenerates the tables and figures of the DRS
// paper's evaluation (§V) on the simulation substrate and prints the same
// rows/series the paper plots.
//
// Usage:
//
//	drs-experiments [flags] <fig6|fig7|fig8|fig9|fig10|baseline|shedding|overload|contention|churn|chaos|restart|trace|table2|all>
//
// Flags:
//
//	-app vld|fpd|both   application for fig6/fig7/fig9/baseline (default both)
//	-seed N             simulation seed (default 1)
//	-duration S         horizon in simulated seconds; a positive value scales
//	                    the experiment's whole timeline to it (default 0: the
//	                    paper's durations)
//	-iters N            iterations per Table II cell (default 10000)
//	-scenario FILE      chaos only: replay a scenario spec from a JSON file
//	                    instead of the built-in everything-at-once arc
//
// Durations are simulated time: the full "all" sweep runs the paper's
// 10-minute and 27-minute experiments in a few wall-clock minutes.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"github.com/drs-repro/drs/internal/experiments"
	"github.com/drs-repro/drs/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "drs-experiments:", err)
		os.Exit(1)
	}
}

// env is what the command line gives an experiment.
type env struct {
	apps     []experiments.App
	opts     experiments.Options
	iters    int
	scenario string
}

// experiment is one row of the table the command is: the usage line, the
// "need exactly one experiment" error and `all` are all read off it.
type experiment struct {
	name string
	run  func(env) error
	// wallClock marks a measurement of real elapsed time, whose printed
	// cells differ run to run; these rows close the table, so `all` runs
	// them after every simulation.
	wallClock bool
}

var table = []experiment{
	{name: "fig6", run: perApp(experiments.RunFigure6)},
	{name: "fig7", run: perApp(experiments.RunFigure7)},
	{name: "fig8", run: once(experiments.RunFigure8)},
	{name: "fig9", run: perApp(experiments.RunFigure9)},
	{name: "fig10", run: func(e env) error {
		for _, exp := range []experiments.Fig10Experiment{experiments.ExpA, experiments.ExpB} {
			if err := show(experiments.RunFigure10(exp, e.opts)); err != nil {
				return err
			}
		}
		return nil
	}},
	{name: "baseline", run: perApp(experiments.RunBaseline)},
	{name: "shedding", run: once(experiments.RunShedding)},
	{name: "overload", run: once(experiments.RunOverload)},
	{name: "contention", run: once(experiments.RunContention)},
	{name: "churn", run: once(experiments.RunChurn)},
	// chaos replays the built-in everything-at-once scenario, or the spec
	// loaded from -scenario when that names a file.
	{name: "chaos", run: func(e env) error {
		if e.scenario == "" {
			return show(experiments.RunChaos(e.opts))
		}
		_, spec, err := scenario.Load(e.scenario)
		if err != nil {
			return err
		}
		return show(experiments.RunChaosSpec(spec, e.opts))
	}},
	{name: "restart", run: once(experiments.RunRestart)},
	{name: "trace", wallClock: true, run: once(experiments.RunTrace)},
	{name: "table2", wallClock: true, run: func(e env) error { return show(experiments.RunTable2(e.iters)) }},
}

// printer is what every experiment's result is: something that renders
// the rows the paper plots.
type printer interface{ Print(io.Writer) }

// show prints one experiment's result to stdout.
func show[R printer](r R, err error) error {
	if err != nil {
		return err
	}
	r.Print(os.Stdout)
	return nil
}

// once adapts an experiment that takes only the options.
func once[R printer](f func(experiments.Options) (R, error)) func(env) error {
	return func(e env) error { return show(f(e.opts)) }
}

// perApp adapts a per-application figure: one result per -app value.
func perApp[R printer](f func(experiments.App, experiments.Options) (R, error)) func(env) error {
	return func(e env) error {
		for _, app := range e.apps {
			if err := show(f(app, e.opts)); err != nil {
				return err
			}
		}
		return nil
	}
}

// names lists what the positional argument accepts, in usage order.
func names() []string {
	out := make([]string, 0, len(table)+1)
	for _, x := range table {
		out = append(out, x.name)
	}
	return append(out, "all")
}

// plan resolves the positional argument to the experiments to run: one
// table row, or for "all" the whole table.
func plan(arg string) ([]experiment, error) {
	if arg == "all" {
		return table, nil
	}
	for _, x := range table {
		if x.name == arg {
			return []experiment{x}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q", arg)
}

func run(args []string) error {
	fs := flag.NewFlagSet("drs-experiments", flag.ContinueOnError)
	app := fs.String("app", "both", "application for per-app figures: vld, fpd or both")
	seed := fs.Uint64("seed", 1, "simulation seed")
	duration := fs.Float64("duration", 0, "horizon in simulated seconds: a positive value scales the experiment's whole timeline to it; 0 runs the paper's durations")
	iters := fs.Int("iters", 10000, "iterations per Table II cell")
	scenarioPath := fs.String("scenario", "", "chaos: replay this scenario JSON file instead of the built-in arc")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case !(*duration >= 0) || math.IsInf(*duration, 1):
		return fmt.Errorf("-duration must be non-negative and finite, got %g", *duration)
	case *iters < 1:
		return fmt.Errorf("-iters must be positive, got %d", *iters)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("need exactly one experiment: %s", strings.Join(names(), " "))
	}
	apps, err := appsFor(*app)
	if err != nil {
		return err
	}
	todo, err := plan(fs.Arg(0))
	if err != nil {
		return err
	}
	e := env{apps: apps, opts: experiments.Options{Seed: *seed, Duration: *duration}, iters: *iters, scenario: *scenarioPath}
	for _, x := range todo {
		if err := x.run(e); err != nil {
			return err
		}
	}
	return nil
}

func appsFor(flagVal string) ([]experiments.App, error) {
	switch flagVal {
	case "vld":
		return []experiments.App{experiments.VLD}, nil
	case "fpd":
		return []experiments.App{experiments.FPD}, nil
	case "both":
		return []experiments.App{experiments.VLD, experiments.FPD}, nil
	default:
		return nil, fmt.Errorf("unknown app %q (want vld, fpd or both)", flagVal)
	}
}
