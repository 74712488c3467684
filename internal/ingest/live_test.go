package ingest

import (
	"io"
	"log/slog"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/loop"
)

// TestLiveOverloadArc runs the whole front door against the real
// goroutine engine: many clients → overload a small grant → the gate
// sheds with explicit verdicts while the offered-rate measurement drives
// the Supervisor to scale out to the provider cap → the surge ends and
// the gate returns to admit-all — with zero admitted tuples lost across
// the entire run (gate admitted == engine completions after an orderly
// drain). Wall-clock phases make this a seconds-long test; the assertions
// are the arc's shape, not exact numbers.
func TestLiveOverloadArc(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds-long live engine arc")
	}
	const (
		mu       = 50.0  // tuples/s one executor serves (20 ms mean)
		tmax     = 0.250 // seconds (well above the ~100 ms natural latency of (1,1))
		baseGold = 20.0  // gold's offered rate throughout
		baseBrz  = 10.0  // bronze's base rate
		surgeBrz = 200.0 // bronze's surge rate: needs ~10 slots, cap is 8
	)

	// The engine: two service stages behind a NetworkSpout.
	gate := NewGate(GateConfig{
		Tmax: tmax, MaxSlots: 8,
		RingCapacity: 1 << 12, ReplanEvery: 250 * time.Millisecond,
	})
	serviceBolt := func(seed int64) engine.BoltFactory {
		return func(task int) engine.Bolt {
			rng := rand.New(rand.NewSource(seed + int64(task)))
			return engine.BoltFunc(func(_ engine.Tuple, emit engine.Emit) error {
				time.Sleep(time.Duration(rng.ExpFloat64() / mu * float64(time.Second)))
				emit(engine.Values{0})
				return nil
			})
		}
	}
	sinkBolt := func(seed int64) engine.BoltFactory {
		return func(task int) engine.Bolt {
			rng := rand.New(rand.NewSource(seed + int64(task)))
			return engine.BoltFunc(func(engine.Tuple, engine.Emit) error {
				time.Sleep(time.Duration(rng.ExpFloat64() / mu * float64(time.Second)))
				return nil
			})
		}
	}
	topo, err := engine.NewTopology().
		Spout("front", 1, func(int) engine.Spout {
			return &engine.NetworkSpout{Source: gate.Ring(), MaxBatch: 64}
		}).
		Bolt("extract", 8, serviceBolt(1)).
		Bolt("match", 8, sinkBolt(1000)).
		Shuffle("front", "extract").
		Shuffle("extract", "match").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := topo.Start(engine.RunConfig{
		Alloc:          map[string]int{"extract": 1, "match": 1},
		QuiesceTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The cluster: 2-slot machines up to a 4-machine cap (8 slots), fast
	// modeled transitions; a single tenant leased through the Scheduler so
	// beyond-cap requests grant partially.
	pool, err := cluster.NewPool(cluster.PoolConfig{
		SlotsPerMachine: 2, MaxMachines: 4,
		Costs: cluster.CostModel{
			Rebalance:        50 * time.Millisecond,
			MachineColdStart: 100 * time.Millisecond,
			MachineRelease:   50 * time.Millisecond,
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := cluster.NewScheduler(cluster.SchedulerConfig{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := sched.Register(cluster.TenantConfig{Name: "front", MinSlots: 2, InitialSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewController(core.ControllerConfig{
		Mode: core.ModeMinResource, Tmax: tmax,
		MinGain: 0.05, ScaleInSlack: 0.3, MaxScaleInUtilization: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := loop.New(loop.Config{
		Target:    SupervisedTarget{Inner: loop.EngineTarget(run), Gate: gate},
		Operators: run.BoltNames(),
		Stepper:   ctrl,
		Pool:      lease,
		Interval:  500 * time.Millisecond,
		Cooldown:  1500 * time.Millisecond,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	gate.SetControl(sup)
	if err := gate.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}

	// Clients: paced offer loops at a switchable rate.
	gold := gate.Client("gold", 4, 0, 0)
	bronze := gate.Client("bronze", 1, 0, 0)
	var bronzeRate atomic.Uint64
	setRate := func(r float64) { bronzeRate.Store(uint64(r)) }
	setRate(baseBrz)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	drive := func(c *Client, rate func() float64) {
		defer wg.Done()
		for {
			r := rate()
			wait := time.Duration(float64(time.Second) / r)
			select {
			case <-stop:
				return
			case <-time.After(wait):
				c.Offer(engine.Values{[]byte("rec")})
			}
		}
	}
	wg.Add(2)
	go drive(gold, func() float64 { return baseGold })
	go drive(bronze, func() float64 { return float64(bronzeRate.Load()) })

	// Phase 1: base load settles.
	time.Sleep(4 * time.Second)
	if st := gate.Stats(); st.ShedOverload > st.Offered/20 {
		t.Fatalf("base load shed %d of %d offered — nothing should shed before the surge", st.ShedOverload, st.Offered)
	}

	// Phase 2: bronze surges far beyond the provider cap.
	setRate(surgeBrz)
	time.Sleep(8 * time.Second)
	surgeStats := gate.Stats()
	goldShedSurge, bronzeShedSurge := gold.shed.Load(), bronze.shed.Load()
	grantAtPeak := lease.Kmax()

	// Phase 3: surge ends; the gate must return to admit-all.
	setRate(baseBrz)
	time.Sleep(6 * time.Second)
	finalStats := gate.Stats()

	close(stop)
	wg.Wait()
	// Orderly shutdown: close the front door, wait until the ring is empty
	// and every root the spout started has completed — the books node's
	// drain waits on — then stop the engine: no admitted tuple may be lost.
	gate.Close()
	sup.Stop()
	for deadline := time.Now().Add(30 * time.Second); ; runtime.Gosched() {
		started, completed, _ := run.RootTotals()
		if gate.Ring().Len() == 0 && started == completed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no quiet point within 30 s: ring %d, roots %d started / %d completed",
				gate.Ring().Len(), started, completed)
		}
	}
	if err := run.Stop(); err != nil {
		t.Fatal(err)
	}

	if surgeStats.ShedOverload == 0 {
		t.Fatal("the gate never shed during the surge")
	}
	if grantAtPeak != 8 {
		t.Errorf("grant at surge peak %d slots, want the 8-slot cap", grantAtPeak)
	}
	if bronzeShedSurge == 0 {
		t.Fatal("bronze shed nothing during the surge")
	}
	if goldShedSurge*5 >= bronzeShedSurge {
		t.Errorf("shedding not weight-ordered: gold %d vs bronze %d", goldShedSurge, bronzeShedSurge)
	}
	if finalStats.AdmitFraction < 0.99 {
		t.Errorf("admit fraction %.2f after recovery, want admit-all", finalStats.AdmitFraction)
	}
	completions, _ := run.Completions()
	if completions != finalStatsAdmitted(gate) {
		t.Errorf("zero-loss audit failed: gate admitted %d, engine completed %d",
			finalStatsAdmitted(gate), completions)
	}
}

// finalStatsAdmitted reads the gate's cumulative admitted count.
func finalStatsAdmitted(g *Gate) int64 { return g.Stats().Admitted }
