package loop

import (
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/metrics"
	"github.com/drs-repro/drs/internal/obs"
)

// allocTarget is a fakeTarget without the defensive copies: Allocation
// returns the live map, so AllocsPerRun sees only the supervisor's own
// allocations, exactly as the root BenchmarkSupervisorTick measures them.
type allocTarget struct {
	alloc map[string]int
	rep   metrics.IntervalReport
}

func (t *allocTarget) DrainInterval() metrics.IntervalReport { return t.rep }
func (t *allocTarget) Allocation() map[string]int            { return t.alloc }
func (t *allocTarget) Rebalance(alloc map[string]int, _ time.Duration) error {
	for k, v := range alloc {
		t.alloc[k] = v
	}
	return nil
}

// lastDecision is a Stepper that remembers the inner stepper's verdict, so
// the guard can say which hold it measured.
type lastDecision struct {
	core.Stepper
	d core.Decision
}

func (l *lastDecision) Step(s core.Snapshot) (core.Decision, error) {
	d, err := l.Stepper.Step(s)
	l.d = d
	return d, err
}

// TestSupervisorTickZeroAllocs pins a full control round — measurer
// ingest, snapshot, the round's model, the tenant bid, the solve, the hold
// verdict — at zero allocations with the decision log and the per-tenant
// histograms wired in, on two configurations: the Program (4) round on a
// fixed budget, and the round `drsctl serve`, `schedule` and the benchmark
// SUT actually run — Program (6) under a cluster.Scheduler lease, holding
// on the MaxScaleInUtilization guard, which is the designed steady state
// of a converged deployment. Steady-state rounds hold (emit-on-change
// means they log nothing), so observability and the model must stay free
// on the per-Tm path; this fails when a change regresses it.
func TestSupervisorTickZeroAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	lease := func(t *testing.T) Pool {
		pool, err := cluster.NewPool(cluster.PoolConfig{SlotsPerMachine: 8, MaxMachines: 4}, 3)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := cluster.NewScheduler(cluster.SchedulerConfig{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		tenant, err := sched.Register(cluster.TenantConfig{Name: "alloc", MinSlots: 3, InitialSlots: 22})
		if err != nil {
			t.Fatal(err)
		}
		return tenant
	}
	for _, row := range []struct {
		name string
		ctrl core.ControllerConfig
		pool func(*testing.T) Pool
		hold string
	}{
		{"min-latency on a fixed pool",
			core.ControllerConfig{Mode: core.ModeMinLatency, Kmax: 22, MinGain: 0.05},
			func(*testing.T) Pool { return FixedPool(22) },
			"current allocation already optimal"},
		{"min-resource under a scheduler lease",
			core.ControllerConfig{Mode: core.ModeMinResource, Tmax: 2, MinGain: 0.05, ScaleInSlack: 0.3, MaxScaleInUtilization: 0.6},
			lease,
			"scale-in would push an operator past MaxScaleInUtilization"},
	} {
		t.Run(row.name, func(t *testing.T) {
			dlog := obs.NewLog(obs.Config{})
			defer dlog.Close()
			reg := obs.NewRegistry()
			names := []string{"extract", "match", "aggregate"}
			target := &allocTarget{
				alloc: map[string]int{"extract": 10, "match": 11, "aggregate": 1},
				rep: metrics.IntervalReport{
					Duration:         10 * time.Second,
					ExternalArrivals: 130,
					Ops: []metrics.OpInterval{
						{Arrivals: 130, Served: 130, Sampled: 130, BusyTime: time.Duration(130 * 0.45 * float64(time.Second))},
						{Arrivals: 130, Served: 130, Sampled: 130, BusyTime: time.Duration(130 * 0.50 * float64(time.Second))},
						{Arrivals: 130, Served: 130, Sampled: 130, BusyTime: time.Duration(130 * 0.01 * float64(time.Second))},
					},
					SojournCount: 120,
					SojournTotal: 120 * time.Second,
				},
			}
			ctrl, err := core.NewController(row.ctrl)
			if err != nil {
				t.Fatal(err)
			}
			stepper := &lastDecision{Stepper: ctrl}
			sup, err := New(Config{
				Target:      target,
				Operators:   names,
				Stepper:     stepper,
				Pool:        row.pool(t),
				Interval:    10 * time.Second,
				Cooldown:    time.Nanosecond, // decide every round: measure the full path
				Tenant:      "alloc",
				DecisionLog: dlog,
				Sojourn:     reg.Histogram("sojourn", "sojourn", []float64{0.1, 1}, `tenant="alloc"`),
				ShedFrac:    reg.Histogram("shed", "shed", []float64{0.1, 0.5}, `tenant="alloc"`),
			})
			if err != nil {
				t.Fatal(err)
			}
			// Converge first: the opening rounds may rebalance (and log); the
			// guard is about the steady state every deployment spends its life in.
			for i := 0; i < 8; i++ {
				sup.Tick()
			}
			events := len(sup.History())
			allocs := testing.AllocsPerRun(5000, func() { sup.Tick() })
			if allocs != 0 {
				t.Fatalf("Tick allocated %.3f/op with the decision log on; want 0", allocs)
			}
			if stepper.d.Action != core.ActionNone || stepper.d.Reason != row.hold {
				t.Fatalf("measured rounds decided %v (%q), want the hold %q", stepper.d.Action, stepper.d.Reason, row.hold)
			}
			if n := len(sup.History()); n != events {
				t.Fatalf("measured rounds recorded %d events; a hold round records nothing", n-events)
			}
		})
	}
}
