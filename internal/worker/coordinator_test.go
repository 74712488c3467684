package worker

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/engine"
)

// testCluster is a loopback coordinator with machine-id assignment and
// death recording.
type testCluster struct {
	t    *testing.T
	co   *Coordinator
	ln   net.Listener
	mu   sync.Mutex
	next int
	dead []int
}

func startCluster(t *testing.T, cfg CoordinatorConfig) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, next: 1} // machine 0 is the "serve process"
	cfg.Bind = func(worker string, pid int) (int, error) {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		id := tc.next
		tc.next++
		return id, nil
	}
	prevDeath := cfg.OnDeath
	cfg.OnDeath = func(machine int) {
		tc.mu.Lock()
		tc.dead = append(tc.dead, machine)
		tc.mu.Unlock()
		if prevDeath != nil {
			prevDeath(machine)
		}
	}
	tc.co = NewCoordinator(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tc.ln = ln
	go tc.co.Serve(ln)
	t.Cleanup(func() {
		ln.Close()
		tc.co.Close()
	})
	return tc
}

func (tc *testCluster) deaths() []int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return append([]int(nil), tc.dead...)
}

// doublerBolts hosts one bolt "work" that emits each input value twice.
func doublerBolts(int64) (map[string]engine.BoltFactory, error) {
	return map[string]engine.BoltFactory{
		"work": func(task int) engine.Bolt {
			return engine.BoltFunc(func(tu engine.Tuple, emit engine.Emit) error {
				emit(engine.Values{tu.Values[0]})
				emit(engine.Values{tu.Values[0]})
				return nil
			})
		},
	}, nil
}

func dialWorker(t *testing.T, tc *testCluster, name string) *Worker {
	t.Helper()
	return dialWorkerBolts(t, tc, name, doublerBolts)
}

func dialWorkerBolts(t *testing.T, tc *testCluster, name string, build func(int64) (map[string]engine.BoltFactory, error)) *Worker {
	t.Helper()
	w, err := Dial(Config{Addr: tc.ln.Addr().String(), Name: name, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Run() }()
	t.Cleanup(func() {
		w.Close()
		<-done
	})
	return w
}

// TestShuttleProcessBatch drives batches straight through the transport —
// no engine — and checks results, sequencing and aggregates.
func TestShuttleProcessBatch(t *testing.T) {
	tc := startCluster(t, CoordinatorConfig{Seed: 7})
	w := dialWorker(t, tc, "w1")
	if w.Seed() != 7 {
		t.Fatalf("seed = %d, want 7", w.Seed())
	}
	if err := tc.co.WaitWorkers(1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	s := tc.co.Shuttle(w.Machine())
	if s == nil {
		t.Fatal("no shuttle for registered worker")
	}
	const batches = 8
	var wg sync.WaitGroup
	results := make([]engine.RemoteResult, batches)
	errs := make([]error, batches)
	for b := 0; b < batches; b++ {
		wg.Add(1)
		items := []engine.RemoteItem{
			{Task: 0, Values: engine.Values{b}},
			{Task: 1, Values: engine.Values{b * 10}},
		}
		idx := b
		err := s.ProcessBatch("work", items, func(res engine.RemoteResult, err error) {
			// Results are borrowed; copy what the assertion needs.
			cp := res
			cp.Emitted = append([][]engine.Values(nil), res.Emitted...)
			results[idx], errs[idx] = cp, err
			wg.Done()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for b := 0; b < batches; b++ {
		if errs[b] != nil {
			t.Fatalf("batch %d: %v", b, errs[b])
		}
		res := results[b]
		if res.Served != 2 || len(res.Emitted) != 2 {
			t.Fatalf("batch %d: served %d emitted %d", b, res.Served, len(res.Emitted))
		}
		for i, emits := range res.Emitted {
			if len(emits) != 2 {
				t.Fatalf("batch %d item %d: %d emissions, want 2", b, i, len(emits))
			}
		}
		if res.BusyNanos < 0 || res.Sampled != 2 {
			t.Fatalf("batch %d: bad aggregates %+v", b, res)
		}
	}
}

// TestShuttleUnhostedBolt: a batch for a bolt the worker does not host
// kills the connection (protocol error) and fails the pending batch.
func TestShuttleUnhostedBolt(t *testing.T) {
	tc := startCluster(t, CoordinatorConfig{})
	w := dialWorker(t, tc, "w1")
	if err := tc.co.WaitWorkers(1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	s := tc.co.Shuttle(w.Machine())
	got := make(chan error, 1)
	err := s.ProcessBatch("nope", []engine.RemoteItem{{Task: 0, Values: engine.Values{1}}},
		func(_ engine.RemoteResult, err error) { got <- err })
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("batch for unhosted bolt succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending batch never failed")
	}
}

// TestLeaseRevocation registers a raw connection that never heartbeats;
// the coordinator must declare it dead once the lease lapses, and not
// before.
func TestLeaseRevocation(t *testing.T) {
	died := make(chan int, 1)
	tc := startCluster(t, CoordinatorConfig{OnDeath: func(machine int) { died <- machine }})
	conn, err := net.Dial("tcp", tc.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, err := appendJSONFrame(nil, kindHello, helloMsg{Worker: "silent", Pid: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The lease starts after the coordinator reads the hello, so no death
	// can come sooner than DefaultLease after this instant.
	sent := time.Now()
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(conn, nil); err != nil { // welcome
		t.Fatal(err)
	}
	// Never heartbeat; the lease must lapse.
	select {
	case machine := <-died:
		if machine != 1 {
			t.Fatalf("machine %d died, want 1", machine)
		}
	case <-time.After(DefaultLease + 5*time.Second):
		t.Fatal("lease never revoked")
	}
	if lived := time.Since(sent); lived < DefaultLease {
		t.Fatalf("worker revoked after %v, inside its %v lease", lived, DefaultLease)
	}
	if tc.co.Shuttle(1) != nil {
		t.Fatal("dead worker still registered")
	}
}

// TestWorkerCloseFiresDeath: an orderly worker shutdown surfaces as a
// death (the serve side treats any disconnect as machine failure).
func TestWorkerCloseFiresDeath(t *testing.T) {
	died := make(chan int, 1)
	tc := startCluster(t, CoordinatorConfig{OnDeath: func(machine int) { died <- machine }})
	w, err := Dial(Config{Addr: tc.ln.Addr().String(), Name: "w1", Build: doublerBolts})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Run() }()
	if err := tc.co.WaitWorkers(1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	w.Close()
	<-done
	select {
	case <-died:
	case <-time.After(2 * time.Second):
		t.Fatal("worker close never surfaced as death")
	}
}

// TestEngineOverShuttle binds a live topology's executors to a real worker
// over loopback TCP and checks the books balance exactly as in-process.
func TestEngineOverShuttle(t *testing.T) {
	tc := startCluster(t, CoordinatorConfig{})
	w := dialWorker(t, tc, "w1")
	if err := tc.co.WaitWorkers(1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	const n = 400
	var mu sync.Mutex
	seen := 0
	allSeen := make(chan struct{}) // closed by the sink's 2n-th tuple
	topo, err := engine.NewTopology().
		Spout("src", 1, func(int) engine.Spout { return countSpout(n) }).
		Bolt("work", 4, func(int) engine.Bolt {
			return engine.BoltFunc(func(tu engine.Tuple, emit engine.Emit) error {
				emit(engine.Values{tu.Values[0]})
				emit(engine.Values{tu.Values[0]})
				return nil
			})
		}).
		Bolt("sink", 4, func(int) engine.Bolt {
			return engine.BoltFunc(func(engine.Tuple, engine.Emit) error {
				mu.Lock()
				if seen++; seen == 2*n {
					close(allSeen)
				}
				mu.Unlock()
				return nil
			})
		}).
		Shuffle("src", "work").
		Shuffle("work", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := topo.Start(engine.RunConfig{Alloc: map[string]int{"work": 2, "sink": 2}, QuiesceTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Stop()
	// The first two slots ("work", declared first) land on the worker
	// machine; the placement then runs out of slots, so "sink" degrades
	// to local — exactly right, since the worker only hosts "work".
	plan := ApplyPlacement(run, run.Allocation(),
		map[int]int{w.Machine(): 2}, 0, tc.co.Remote)
	if plan.Errors != 0 {
		t.Fatalf("placement errors: %+v", plan)
	}
	if got, _ := run.RemoteBound("work"); got != 2 {
		t.Fatalf("work RemoteBound = %d, want 2", got)
	}
	if got, _ := run.RemoteBound("sink"); got != 0 {
		t.Fatalf("sink RemoteBound = %d, want 0", got)
	}
	if plan.Bound[w.Machine()] != 2 || plan.Local != 2 {
		t.Fatalf("plan = %+v, want 2 on machine %d and 2 local", plan, w.Machine())
	}
	select {
	case <-allSeen:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("sink saw %d of %d tuples — tuples lost over the shuttle", seen, 2*n)
	}
	// Re-applying the identical placement is a no-op (idempotent bindings).
	again := ApplyPlacement(run, run.Allocation(),
		map[int]int{w.Machine(): 2}, 0, tc.co.Remote)
	if again.Errors != 0 || again.Bound[w.Machine()] != 2 {
		t.Fatalf("re-apply plan = %+v", again)
	}
	// Stop quiesces: every root the sink finished acks before it returns.
	if err := run.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if count, _ := run.Completions(); count != n {
		t.Fatalf("completions %d, want %d", count, n)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen != 2*n {
		t.Fatalf("sink saw %d tuples, want %d", seen, 2*n)
	}
}

// countSpout emits 0..n-1 then idles.
func countSpout(n int) engine.Spout {
	return spoutFunc(func(ctx engine.SpoutContext) error {
		for i := 0; i < n; i++ {
			select {
			case <-ctx.Done():
				return nil
			default:
			}
			ctx.Emit(engine.Values{i})
		}
		<-ctx.Done()
		return nil
	})
}

// spoutFunc adapts a function to engine.Spout.
type spoutFunc func(engine.SpoutContext) error

// Run implements engine.Spout.
func (f spoutFunc) Run(ctx engine.SpoutContext) error { return f(ctx) }
