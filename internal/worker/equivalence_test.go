package worker

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/scenario"
	"github.com/drs-repro/drs/internal/stats"
)

// The equivalence harness: the same seeded scenario workload runs through
// the engine twice — once with every executor in-process, once with the
// stateful bolt's executors spread over three real worker daemons on
// loopback TCP — and the books must come out identical. Admission is a
// deterministic token bucket replayed over a recorded arrival trace, so
// the admitted/shed split is a pure function of the spec; what the test
// actually proves is that remote execution changes none of it: same
// admitted, same shed, same per-key final counts, same per-tenant
// processed tallies, zero tuples lost.

// eqEntry is one admitted tuple of the deterministic workload.
type eqEntry struct {
	tenant string
	key    int
}

// eqWorkload derives the deterministic workload from a seeded spec:
// per-tenant seeded arrival gaps, token-bucket admission at 60% of
// their mean rate (so the surges genuinely shed), and seeded key
// assignment.
func eqWorkload(t *testing.T, spec scenario.Spec, perTenant int) (entries []eqEntry, admitted, shed map[string]int64) {
	t.Helper()
	tl, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	admitted = make(map[string]int64)
	shed = make(map[string]int64)
	for ti, ts := range spec.Tenants {
		proc, err := tl.Arrivals(ts.Name)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(uint64(spec.Seed) + uint64(ti)*101)
		gaps, total := make([]float64, perTenant), 0.0
		for i := range gaps {
			gaps[i] = proc.NextInterArrival(rng)
			total += gaps[i]
		}
		keys := newEqRNG(uint64(spec.Seed)*7919 + uint64(ti))
		rate := float64(perTenant) / total * 0.6
		const burst = 20.0
		tokens := burst
		for _, gap := range gaps {
			tokens = min(burst, tokens+gap*rate)
			key := int(keys.next() % 128)
			if tokens >= 1 {
				tokens--
				admitted[ts.Name]++
				entries = append(entries, eqEntry{tenant: ts.Name, key: key})
			} else {
				shed[ts.Name]++
			}
		}
	}
	return entries, admitted, shed
}

// eqRNG is a tiny splitmix64 so key assignment never depends on package
// internals that might change.
type eqRNG struct{ s uint64 }

func newEqRNG(seed uint64) *eqRNG { return &eqRNG{s: seed} }

func (r *eqRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9fe
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// countBolts builds the stateful bolt the workload runs through: per-task
// running counts keyed by (tenant, key), each input emitting its key's new
// count. Both the serve process and the workers build instances from this
// same factory, so local and remote execution host identical state
// machines.
func countBolts(int64) (map[string]engine.BoltFactory, error) {
	return map[string]engine.BoltFactory{"count": newCountBolt}, nil
}

func newCountBolt(task int) engine.Bolt {
	counts := make(map[string]int)
	return engine.BoltFunc(func(tu engine.Tuple, emit engine.Emit) error {
		tenant := tu.Values[0].(string)
		key := tu.Values[1].(int)
		ck := fmt.Sprintf("%s/%d", tenant, key)
		counts[ck]++
		emit(engine.Values{tenant, key, counts[ck]})
		return nil
	})
}

// eqBooks is one run's complete accounting.
type eqBooks struct {
	admitted map[string]int64 // tenant -> admitted at the front door
	shed     map[string]int64 // tenant -> shed at the front door
	counts   map[string]int   // tenant/key -> final running count at the sink
	tally    map[string]int64 // tenant -> tuples that reached the sink
	total    int64            // completed processing trees
	failures int64            // remote bindings the engine self-healed
}

// runEq pushes the workload through a src -> count(fields by key) -> sink
// topology. remoteMachines > 0 spreads the count executors over that many
// live workers; 0 keeps everything in-process. killOne closes one worker's
// connection a quarter of the way through, so its executors fail live and
// the engine must replay and self-heal.
func runEq(t *testing.T, spec scenario.Spec, perTenant, remoteMachines int, killOne bool) eqBooks {
	t.Helper()
	entries, admitted, shed := eqWorkload(t, spec, perTenant)
	books := eqBooks{
		admitted: admitted,
		shed:     shed,
		counts:   make(map[string]int),
		tally:    make(map[string]int64),
	}
	stride := 256 // pacing: let queues drain between bursts
	if killOne {
		stride = 16 // stretch the run so the kill lands mid-stream
	}
	// The spout holds until placement is applied: tuples processed by the
	// interim local executors would leave their running counts behind on
	// rebind, and this harness is about where tuples run, not about state
	// migration (the kill path exercises mid-stream rebinding separately).
	start := make(chan struct{})
	var mu sync.Mutex
	topo, err := engine.NewTopology().
		Spout("src", 1, func(int) engine.Spout {
			return spoutFunc(func(ctx engine.SpoutContext) error {
				select {
				case <-start:
				case <-ctx.Done():
					return nil
				}
				for i, e := range entries {
					select {
					case <-ctx.Done():
						return nil
					default:
					}
					ctx.Emit(engine.Values{e.tenant, e.key})
					if i%stride == stride-1 {
						time.Sleep(time.Millisecond) // workload: the spout's pacing
					}
				}
				<-ctx.Done()
				return nil
			})
		}).
		Bolt("count", 8, newCountBolt).
		Bolt("sink", 2, func(int) engine.Bolt {
			return engine.BoltFunc(func(tu engine.Tuple, emit engine.Emit) error {
				tenant := tu.Values[0].(string)
				key := tu.Values[1].(int)
				n := tu.Values[2].(int)
				mu.Lock()
				ck := fmt.Sprintf("%s/%d", tenant, key)
				if n > books.counts[ck] {
					books.counts[ck] = n
				}
				books.tally[tenant]++
				mu.Unlock()
				return nil
			})
		}).
		Fields("src", "count", func(v engine.Values) uint64 { return uint64(v[1].(int)) }).
		Shuffle("count", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := topo.Start(engine.RunConfig{
		Alloc:          map[string]int{"count": 6, "sink": 2},
		QuiesceTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Stop()

	var victim *Worker
	if remoteMachines > 0 {
		tc := startCluster(t, CoordinatorConfig{Seed: int64(spec.Seed)})
		placement := make(map[int]int, remoteMachines)
		for i := 0; i < remoteMachines; i++ {
			w := dialWorkerBolts(t, tc, fmt.Sprintf("w%d", i+1), countBolts)
			placement[w.Machine()] = 2
			if i == remoteMachines-1 {
				victim = w
			}
		}
		if err := tc.co.WaitWorkers(remoteMachines, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		plan := ApplyPlacement(run, run.Allocation(), placement, 0, tc.co.Remote)
		if plan.Errors != 0 {
			t.Fatalf("placement errors: %+v", plan)
		}
		if got, _ := run.RemoteBound("count"); got != 6 {
			t.Fatalf("count RemoteBound = %d, want 6", got)
		}
	}
	close(start)

	want := int64(len(entries))
	completions := func() int64 { c, _ := run.Completions(); return c }
	if killOne && victim != nil {
		waitFor(t, "a quarter of the surge to complete", func() bool { return completions() >= want/4 })
		victim.Close() // mid-surge worker death: executors fail live
	}
	waitFor(t, "every admitted tuple to complete (none lost)", func() bool { return completions() >= want })
	books.total = completions()
	// Drained: every executor's books are back at zero, whether it was a
	// goroutine here or a shuttle to a worker (or replayed off a dead one).
	for bolt, n := range run.QueueLengths() {
		if n != 0 {
			t.Errorf("bolt %s: %d tuples outstanding with every root completed", bolt, n)
		}
	}
	books.failures = run.ExecutorFailures()
	if err := run.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	return books
}

// waitFor spins on cond, yielding between reads, until it holds; the
// deadline only bounds a hang.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestLocalRemoteEquivalence is the harness's headline property: the
// seeded chaos scenario produces bit-identical books whether the stateful
// stage runs in-process or across three worker daemons.
func TestLocalRemoteEquivalence(t *testing.T) {
	spec := scenario.Chaos()
	const perTenant = 600
	local := runEq(t, spec, perTenant, 0, false)
	remote := runEq(t, spec, perTenant, 3, false)

	if !reflect.DeepEqual(local.admitted, remote.admitted) {
		t.Errorf("admitted books differ:\n local %v\nremote %v", local.admitted, remote.admitted)
	}
	if !reflect.DeepEqual(local.shed, remote.shed) {
		t.Errorf("shed books differ:\n local %v\nremote %v", local.shed, remote.shed)
	}
	if !reflect.DeepEqual(local.counts, remote.counts) {
		t.Errorf("processed key counts differ: %d local keys vs %d remote", len(local.counts), len(remote.counts))
	}
	if !reflect.DeepEqual(local.tally, remote.tally) {
		t.Errorf("sink tallies differ:\n local %v\nremote %v", local.tally, remote.tally)
	}
	if local.total != remote.total {
		t.Errorf("completions differ: %d local vs %d remote", local.total, remote.total)
	}
	// Cross-checks that both runs balance internally, not just mutually.
	var wantAdmitted int64
	for tenant, n := range local.admitted {
		wantAdmitted += n
		if local.shed[tenant] == 0 {
			t.Errorf("tenant %s never shed — admission gate not exercised", tenant)
		}
		if remote.tally[tenant] != n {
			t.Errorf("tenant %s: %d admitted but %d processed remotely", tenant, n, remote.tally[tenant])
		}
	}
	if remote.total != wantAdmitted {
		t.Errorf("remote completions %d != admitted %d", remote.total, wantAdmitted)
	}
	var sum int64
	for _, n := range remote.counts {
		sum += int64(n)
	}
	if sum != wantAdmitted {
		t.Errorf("final key counts sum to %d, want %d", sum, wantAdmitted)
	}
}

// TestEquivalenceUnderWorkerKill runs the same workload with a worker
// dying a quarter of the way in. Exactly-once engine accounting over an
// at-least-once transport means the guarantees weaken in one precise way:
// every admitted tuple still completes (zero lost — in-flight batches
// replay), but replays may re-process, so sink tallies become >= instead
// of ==. The engine must also record the failure and self-heal the dead
// worker's bindings.
func TestEquivalenceUnderWorkerKill(t *testing.T) {
	spec := scenario.Chaos()
	const perTenant = 600
	books := runEq(t, spec, perTenant, 3, true)

	var wantAdmitted int64
	for tenant, n := range books.admitted {
		wantAdmitted += n
		if books.tally[tenant] < n {
			t.Errorf("tenant %s: %d admitted but only %d processed — tuples lost in the kill",
				tenant, n, books.tally[tenant])
		}
	}
	if books.total < wantAdmitted {
		t.Errorf("completions %d < admitted %d", books.total, wantAdmitted)
	}
	if books.failures == 0 {
		t.Error("worker death never surfaced as an executor failure")
	}
}
