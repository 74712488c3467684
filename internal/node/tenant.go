package node

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/ingest"
	"github.com/drs-repro/drs/internal/loop"
	"github.com/drs-repro/drs/internal/obs"
)

// One value in use across every live caller, so constants, not options.
const (
	// minGain is the controller's rebalance threshold: the modelled
	// sojourn must improve by this share before executors move.
	minGain = 0.05
	// scaleInSlack and maxScaleInUtilization are the min-resource scale-in
	// hysteresis: a release must keep the estimate within 0.7·Tmax and
	// every operator below 60 % utilization, where the M/M/k estimate
	// still tracks the live engine. A looser pair (0.2/0.9) flaps a
	// 150/s-into-100/s topology between 4 and 5 slots at Tmax 80 ms.
	scaleInSlack          = 0.3
	maxScaleInUtilization = 0.6
)

// LevelNotice is the level of lifecycle events — recovery, listeners up,
// worker churn, shutdown: above the loop's per-decision Info chatter, so
// the default logger shows them, below the warnings.
const LevelNotice = slog.Level(2)

// Logger is the live callers' one logger: text on stderr, lifecycle
// notices and warnings by default, every loop event when verbose.
func Logger(verbose bool) *slog.Logger {
	level := LevelNotice
	if verbose {
		level = slog.LevelInfo
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{
		Level: level,
		ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
			if a.Key == slog.LevelKey && a.Value.Any() == LevelNotice {
				a.Value = slog.StringValue("NOTICE")
			}
			return a
		},
	}))
}

// TenantConfig describes one supervised live topology.
type TenantConfig struct {
	// Name labels the tenant in its log lines and decision records
	// (optional).
	Name string
	// Build declares the topology — spouts, bolts, edges — on the builder
	// (required). Bolt declaration order is the operator order.
	Build func(*engine.TopologyBuilder)
	// Controller is the decision policy: the mode and its Tmax or Kmax.
	// MinGain and the scale-in hysteresis are filled in here.
	Controller core.ControllerConfig
	// Pool is the tenant's lease on a cluster.Scheduler (required): every
	// live supervisor is granted its slots by the scheduler.
	Pool *cluster.Tenant
	// Interval is the measurement cadence Tm (required); the observe-only
	// window after an action is loop's default, 4·Interval.
	Interval time.Duration
	// Logger receives the loop's events; nil discards them.
	Logger *slog.Logger
}

// front is what a Node puts around its tenant: the gate whose sheds
// complete the offered count, the observability sinks, the hysteresis
// carried over from the previous process life.
type front struct {
	gate              *ingest.Gate
	dlog              *obs.Log
	tracer            *obs.Tracer
	resume            *loop.PersistedState
	sojourn, shedFrac *obs.Histogram
	rebalanced        func() // runs after each supervised Rebalance
}

// placingTarget nudges placement once each Rebalance returns: a Rebalance
// rebuilds the changed bolts' executors local.
type placingTarget struct {
	loop.Target
	nudge func()
}

func (t placingTarget) Rebalance(alloc map[string]int, pause time.Duration) error {
	defer t.nudge()
	return t.Target.Rebalance(alloc, pause)
}

// Tenant is one supervised live topology: a started engine run and the
// DRS supervisor — measurer, controller, negotiator — in charge of it.
type Tenant struct {
	// Run is the live engine run.
	Run *engine.Run
	// Sup is the control loop over Run.
	Sup *loop.Supervisor
}

// NewTenant builds the topology, starts it on one executor per bolt and
// assembles its control loop; Start sets the loop ticking.
func NewTenant(cfg TenantConfig) (*Tenant, error) {
	topo, err := buildTopology(cfg.Build)
	if err != nil {
		return nil, err
	}
	alloc := make(map[string]int)
	for _, name := range topo.BoltNames() {
		alloc[name] = 1
	}
	return newTenant(topo, alloc, cfg, front{})
}

func buildTopology(build func(*engine.TopologyBuilder)) (*engine.Topology, error) {
	b := engine.NewTopology()
	build(b)
	return b.Build()
}

// newTenant starts topo on alloc, the executor count per bolt.
func newTenant(topo *engine.Topology, alloc map[string]int, cfg TenantConfig, f front) (*Tenant, error) {
	cfg.Controller.MinGain = minGain
	cfg.Controller.ScaleInSlack = scaleInSlack
	cfg.Controller.MaxScaleInUtilization = maxScaleInUtilization
	ctrl, err := core.NewController(cfg.Controller)
	if err != nil {
		return nil, err
	}
	run, err := topo.Start(engine.RunConfig{Alloc: alloc, DecisionLog: f.dlog, Tracer: f.tracer})
	if err != nil {
		return nil, err
	}
	target := loop.EngineTarget(run)
	if f.rebalanced != nil {
		target = placingTarget{target, f.rebalanced}
	}
	if f.gate != nil {
		target = ingest.SupervisedTarget{Inner: target, Gate: f.gate}
	}
	logger := cfg.Logger
	if logger != nil && cfg.Name != "" {
		logger = logger.With(slog.String("tenant", cfg.Name))
	}
	sup, err := loop.New(loop.Config{
		Target:      target,
		Operators:   run.BoltNames(),
		Stepper:     ctrl,
		Pool:        cfg.Pool,
		Interval:    cfg.Interval,
		Logger:      logger,
		Resume:      f.resume,
		Tenant:      cfg.Name,
		DecisionLog: f.dlog,
		Sojourn:     f.sojourn,
		ShedFrac:    f.shedFrac,
	})
	if err != nil {
		_ = run.Stop()
		return nil, err
	}
	if f.gate != nil {
		f.gate.SetControl(sup)
	}
	return &Tenant{Run: run, Sup: sup}, nil
}

// Start sets the control loop ticking.
func (t *Tenant) Start() error { return t.Sup.Start() }

// Stop halts the control loop, then the run: spouts first, a drain of the
// trees in flight that the last completion ends, or deadline, then the
// executors (engine.Run.StopBy). A nil error is the zero-loss proof —
// every injected tuple completed; otherwise it is an *engine.TimeoutError
// counting the roots stranded at the deadline.
func (t *Tenant) Stop(deadline time.Time) error {
	t.Sup.Stop()
	return t.Run.StopBy(deadline)
}

// WriteHistory renders the supervisor's closing account — the round count
// and every recorded decision — the way all the live commands print it.
// label, when set, prefixes the heading with the tenant's name.
func (t *Tenant) WriteHistory(w io.Writer, label string) {
	writeHistory(w, label, t.Sup.Rounds(), t.Sup.History())
}

func writeHistory(w io.Writer, label string, rounds int64, events []loop.Event) {
	if label != "" {
		label += ": "
	}
	fmt.Fprintf(w, "\n%s%d control rounds, decision history:\n", label, rounds)
	if len(events) == 0 {
		fmt.Fprintln(w, "  (none: the loop held steady every round)")
	}
	for _, ev := range events {
		fmt.Fprintf(w, "  %s\n", ev)
	}
}
