package node

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"maps"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/ingest"
	"github.com/drs-repro/drs/internal/topology"
	"github.com/drs-repro/drs/internal/wal"
	"github.com/drs-repro/drs/internal/worker"
)

// fastFile has sub-millisecond services, so a burst drains within a test.
var fastFile = topology.File{
	Operators: []topology.FileOperator{
		{Name: "extract", ServiceRate: 5000},
		{Name: "match", ServiceRate: 5000},
	},
	Edges: []topology.FileEdge{{From: "extract", To: "match", Selectivity: 1}},
}

// syncBuffer is a goroutine-safe log capture that tests can wait on:
// every write closes changed and replaces it.
type syncBuffer struct {
	mu      sync.Mutex
	b       bytes.Buffer
	changed chan struct{}
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.changed != nil {
		close(s.changed)
		s.changed = nil
	}
	return s.b.Write(p)
}

func (s *syncBuffer) count(msg string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.countLocked(msg)
}

func (s *syncBuffer) countLocked(msg string) int {
	return strings.Count(s.b.String(), `msg="`+msg+`"`)
}

// wait blocks until msg has been logged n times, false if that takes
// longer than timeout. It wakes on each write, not on a timer.
func (s *syncBuffer) wait(msg string, n int, timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		s.mu.Lock()
		if s.countLocked(msg) >= n {
			s.mu.Unlock()
			return true
		}
		if s.changed == nil {
			s.changed = make(chan struct{})
		}
		changed := s.changed
		s.mu.Unlock()
		select {
		case <-changed:
		case <-deadline:
			return false
		}
	}
}

// awaitLog fails the test unless msg is logged n times within 20 s.
func awaitLog(t *testing.T, logs *syncBuffer, msg string, n int) {
	t.Helper()
	if !logs.wait(msg, n, 20*time.Second) {
		t.Fatalf("timed out waiting for %q to be logged %d time(s)", msg, n)
	}
}

// testConfig is a small node on a loopback TCP listener whose lifecycle
// notices land in the returned buffer.
func testConfig() (Config, *syncBuffer) {
	logs := &syncBuffer{}
	return Config{
		Build:           func(b *engine.TopologyBuilder) { AddOperators(b, fastFile, 8, 1) },
		Entry:           "extract",
		Tmax:            0.2,
		Interval:        50 * time.Millisecond,
		SlotsPerMachine: 2,
		MaxMachines:     4,
		TCPAddr:         "127.0.0.1:0",
		Logger:          slog.New(slog.NewTextHandler(logs, &slog.HandlerOptions{Level: LevelNotice})),
	}, logs
}

// waitFor spins on cond, yielding between reads, until it holds; the
// deadline only bounds a hang. It is for state that announces no change —
// executor placement, the goroutine count. Anything the node logs is
// awaited with awaitLog instead.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// listen binds a loopback listener for the node to take over.
func listen(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// freeAddr reserves a loopback port and releases it for the node to claim
// (a small race, fine for a test).
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// send pushes n records over one TCP connection and returns how many were
// acknowledged.
func send(t *testing.T, addr, id, prefix string, n int) (admitted int) {
	t.Helper()
	conn, err := ingest.DialTCP(addr, id)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < n; i++ {
		ok, _, err := conn.Send([]byte(prefix))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			admitted++
		}
	}
	return admitted
}

// TestBooksBalance: records offered over a real loopback TCP listener are
// each either acknowledged and fully processed or refused and counted —
// after Drain, admitted == completed and the shed counters add up, also
// for a burst still in the ring when Drain begins. A drain whose deadline
// cuts a backlog short strands it and still balances,
// admitted == completed + stranded; a durable node leaves exactly the
// stranded records unacked in its WAL for the next boot.
func TestBooksBalance(t *testing.T) {
	t.Run("drained", func(t *testing.T) {
		cfg, _ := testConfig()
		// A tight token bucket, so the burst is part admitted, part shed.
		cfg.Clients = ingest.ListenerConfig{Rate: 100, Burst: 150}
		n, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		const offered = 600
		acked := send(t, n.Status().TCPAddr, "burst", "rec", offered)
		rep := n.Drain()
		st := rep.Gate
		if st.Offered != offered {
			t.Errorf("gate saw %d offers, client made %d", st.Offered, offered)
		}
		if st.Admitted != int64(acked) || acked == 0 || acked == offered {
			t.Errorf("gate admitted %d, client saw %d acks of %d (want a split)", st.Admitted, acked, offered)
		}
		if shed := st.ShedRateLimit + st.ShedOverload + st.ShedBacklog; st.Admitted+shed != st.Offered {
			t.Errorf("books: admitted %d + shed %d != offered %d", st.Admitted, shed, st.Offered)
		}
		if rep.Completions != st.Admitted || rep.Stranded != 0 {
			t.Errorf("engine completed %d and stranded %d of %d admitted", rep.Completions, rep.Stranded, st.Admitted)
		}
	})

	// One NDJSON burst fills the ring faster than the spout empties it, so
	// Drain begins with records still there: the closed ring still hands
	// them to the spout, and the engine's drain runs every one.
	t.Run("burst still in the ring", func(t *testing.T) {
		cfg, _ := testConfig()
		cfg.HTTPAddr = "127.0.0.1:0"
		cfg.FixedAlloc = map[string]int{"extract": 3, "match": 3}
		n, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		resp, err := http.Post("http://"+n.Status().HTTPAddr+"/ingest", "application/x-ndjson",
			strings.NewReader(strings.Repeat("rec\n", 2000)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		rep := n.Drain()
		if rep.Gate.Admitted == 0 || rep.Completions != rep.Gate.Admitted || rep.Stranded != 0 {
			t.Errorf("completed %d and stranded %d of %d admitted", rep.Completions, rep.Stranded, rep.Gate.Admitted)
		}
	})

	// stranded drains, by a 50 ms deadline, a node whose entry bolt parks
	// on a channel until the test ends: the whole backlog strands.
	stranded := func(t *testing.T, walDir string) Report {
		cfg, _ := testConfig()
		cfg.WALDir = walDir
		cfg.FixedAlloc = map[string]int{"extract": 1}
		release := make(chan struct{})
		t.Cleanup(func() { close(release) })
		cfg.Build = func(b *engine.TopologyBuilder) {
			b.Bolt("extract", 1, func(int) engine.Bolt {
				return engine.BoltFunc(func(engine.Tuple, engine.Emit) error { <-release; return nil })
			})
		}
		n, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		acked := send(t, n.Status().TCPAddr, "c", "rec", 20)
		n.shutdown(time.Now().Add(50 * time.Millisecond))
		rep := n.report
		if acked == 0 || rep.Stranded != int64(acked) || rep.Gate.Admitted != rep.Completions+rep.Stranded {
			t.Errorf("acked %d, admitted %d, completed %d, stranded %d: want every ack stranded and admitted == completed + stranded",
				acked, rep.Gate.Admitted, rep.Completions, rep.Stranded)
		}
		return rep
	}
	t.Run("stranded", func(t *testing.T) { stranded(t, "") })
	t.Run("stranded durable replays", func(t *testing.T) {
		dir := t.TempDir()
		rep := stranded(t, dir)
		l, rec, err := wal.Open(wal.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if int64(rec.Unacked) != rep.Stranded {
			t.Errorf("the next Open finds %d unacked records, want the %d stranded", rec.Unacked, rep.Stranded)
		}
	})
}

// TestDurableRestart: a node dropped without Drain replays exactly its
// unacked records on the next boot, before any listener accepts; a drained
// node leaves nothing to replay.
func TestDurableRestart(t *testing.T) {
	const old = 2000
	// The entry bolt records the order payloads arrive in; one executor,
	// so its queue order is the ring's order.
	var (
		mu    sync.Mutex
		order []string
	)
	cfg, logs := testConfig()
	cfg.WALDir = t.TempDir()
	cfg.TCPAddr = freeAddr(t)
	// No tick inside the test: the watermark is only synced by Drain, so a
	// dropped node leaves every admitted record unacked on disk.
	cfg.Interval = time.Hour
	cfg.Build = func(b *engine.TopologyBuilder) {
		b.Bolt("extract", 1, func(int) engine.Bolt {
			return engine.BoltFunc(func(tu engine.Tuple, _ engine.Emit) error {
				mu.Lock()
				order = append(order, string(tu.Values[0].([]byte)))
				mu.Unlock()
				return nil
			})
		})
	}

	first, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acked := send(t, first.Status().TCPAddr, "c", "old", old); acked != old {
		t.Fatalf("first life admitted %d of %d", acked, old)
	}
	first.Close() // the crash: no watermark sync, no final checkpoint

	l, rec, err := wal.Open(wal.Options{Dir: cfg.WALDir})
	if err != nil {
		t.Fatal(err)
	}
	unacked := rec.Unacked
	l.Close()
	if unacked != old {
		t.Fatalf("dropped node left %d unacked records on disk, want %d", unacked, old)
	}

	// A client sends the moment the second boot's TCP listener announces
	// itself: were the listener to open before the replay finished, its
	// records would land among the replayed ones.
	mu.Lock()
	order = nil
	mu.Unlock()
	fresh := make(chan int, 1)
	go func() {
		sent := 0
		defer func() { fresh <- sent }()
		if !logs.wait("tcp ingest open", 2, 20*time.Second) {
			t.Error("the second boot never opened its TCP listener")
			return
		}
		conn, err := ingest.DialTCP(cfg.TCPAddr, "c")
		if err != nil {
			t.Errorf("dial the announced listener: %v", err)
			return
		}
		defer conn.Close()
		for ; sent < 50; sent++ {
			if ok, _, err := conn.Send([]byte("new")); err != nil || !ok {
				break
			}
		}
	}()
	second, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if got := second.Status().Gate.Replayed; got != int64(unacked) {
		t.Errorf("second life replayed %d records, want the %d unacked", got, unacked)
	}
	sent := <-fresh
	rep := second.Drain()
	if rep.Completions != int64(unacked+sent) {
		t.Errorf("second life completed %d, want %d replayed + %d fresh", rep.Completions, unacked, sent)
	}
	// The drained checkpoint carries what a boot reads, and no lease grant:
	// the next boot leases the allocation's total.
	data, err := os.ReadFile(filepath.Join(cfg.WALDir, "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["slots"]; ok || keys["alloc"] == nil {
		t.Errorf("drained checkpoint %s: want an alloc key and no slots key", data)
	}
	mu.Lock()
	for i, p := range order {
		if i < unacked && p != "old" {
			t.Errorf("record %d through the entry bolt is %q: fresh traffic interleaved with the replay", i, p)
			break
		}
	}
	mu.Unlock()

	third, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	if got := third.Status().Gate.Replayed; got != 0 {
		t.Errorf("third life replayed %d records after a drained shutdown, want 0", got)
	}
}

// TestOldCheckpointResumes: a checkpoint.json written by an older binary,
// which still carries the retired seq, watermark and book keys, boots a
// node that resumes its allocation, round count and cooldown.
func TestOldCheckpointResumes(t *testing.T) {
	cfg, _ := testConfig()
	cfg.WALDir = t.TempDir()
	cfg.Interval = time.Hour // no round runs inside the test
	old := `{
  "seq": 5000,
  "watermark": 4990,
  "alloc": {"extract": 3, "match": 2},
  "slots": 6,
  "rounds": 17,
  "cooldown_ms": 90000,
  "admitted": 5000,
  "completed": 4990,
  "shed": 12
}
`
	if err := os.WriteFile(filepath.Join(cfg.WALDir, "checkpoint.json"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := n.tenant.Run.Allocation(); got["extract"] != 3 || got["match"] != 2 {
		t.Errorf("allocation %v, want the checkpoint's extract 3, match 2", got)
	}
	ps := n.tenant.Sup.PersistedState()
	if ps.Rounds != 17 {
		t.Errorf("rounds %d, want the checkpoint's 17", ps.Rounds)
	}
	if ps.CooldownRemaining <= 0 || ps.CooldownRemaining > 90*time.Second {
		t.Errorf("cooldown remaining %v, want the checkpoint's 90s, less the boot", ps.CooldownRemaining)
	}
}

// TestWorkerGate: MinWorkers keeps Start from returning until that many
// workers joined, and Start returns with the executors already placed on
// them; a killed worker surfaces as a failed pool machine, its executors
// heal, and the books still balance.
func TestWorkerGate(t *testing.T) {
	cfg, logs := testConfig()
	cfg.WorkerListener = listen(t)
	cfg.MinWorkers = 2
	cfg.Seed = 7
	dial := func(name string) *worker.Worker {
		w, err := worker.Dial(worker.Config{Addr: cfg.WorkerListener.Addr().String(), Name: name,
			Build: func(seed int64) (map[string]engine.BoltFactory, error) {
				return OperatorFactories(fastFile, seed), nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		go w.Run()
		t.Cleanup(w.Close)
		return w
	}

	started := make(chan *Node, 1)
	go func() {
		n, err := Start(cfg)
		if err != nil {
			t.Error(err)
		}
		started <- n
	}()
	w1 := dial("w1")
	awaitLog(t, logs, "worker joined", 1)
	select {
	case <-started:
		t.Fatal("Start returned with one of two workers joined")
	default:
	}
	dial("w2")
	n := <-started
	if n == nil {
		t.FailNow()
	}
	defer n.Close()
	if got := len(n.coord.Workers()); got != 2 {
		t.Fatalf("%d workers registered after Start, want 2", got)
	}

	// Both executors sit on the first machine (two slots each, ascending
	// order), placed before Start returned; kill the worker behind it.
	if rem := n.Status().Remote; rem["extract"] != 1 || rem["match"] != 1 {
		t.Fatalf("remote executors %v when Start returned, want extract and match on the first worker", rem)
	}
	w1.Close()
	// The death notice follows the pool Fail of the worker's machine.
	awaitLog(t, logs, "worker died, executors heal local", 1)
	for _, m := range n.pool.MachineList() {
		if m.ID == w1.Machine() && !m.Failed {
			t.Fatalf("machine %d still up after its worker's death notice", m.ID)
		}
	}
	if got := logs.count("worker died, executors heal local"); got != 1 {
		t.Fatalf("%d death notices for one kill", got)
	}
	acked := send(t, n.Status().TCPAddr, "c", "rec", 300)
	rep := n.Drain()
	if rep.Completions != int64(acked) || acked == 0 {
		t.Errorf("after the kill: %d admitted, %d completed", acked, rep.Completions)
	}
}

// TestWorkerJoinsAfterStart: with MinWorkers 0 Start returns at once; a
// worker dialling the node's listener afterwards joins, is placed by the
// join's nudge, hosts executors and completes records.
func TestWorkerJoinsAfterStart(t *testing.T) {
	cfg, logs := testConfig()
	cfg.WorkerListener = listen(t)
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	w, err := worker.Dial(worker.Config{Addr: cfg.WorkerListener.Addr().String(), Name: "late",
		Build: func(seed int64) (map[string]engine.BoltFactory, error) {
			return OperatorFactories(fastFile, seed), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	go w.Run()
	defer w.Close()
	awaitLog(t, logs, "worker joined", 1)
	waitFor(t, "placement onto the worker", func() bool {
		rem := n.Status().Remote
		return rem["extract"] == 1 && rem["match"] == 1
	})
	acked := send(t, n.Status().TCPAddr, "c", "rec", 200)
	rep := n.Drain()
	if rep.Completions != int64(acked) || acked == 0 {
		t.Errorf("through the late worker: %d admitted, %d completed", acked, rep.Completions)
	}
	if rep.Remote["extract"]+rep.Remote["match"] != 2 {
		t.Errorf("closing report remote bindings %v, want both executors on the worker", rep.Remote)
	}
}

// TestRebalanceNudgesPlacement: a supervised Rebalance rebuilds the
// changed bolts' executors in-process, and the node places them on its
// worker in the same round, not on its next interval pass (an hour here).
// The pool machine no worker backs is failed first, so the hand-run round
// is a forced shrink, and every nudge before it is spent once the
// worker's join has been placed.
func TestRebalanceNudgesPlacement(t *testing.T) {
	cfg, _ := testConfig()
	cfg.Interval = time.Hour
	cfg.MaxMachines = 2
	cfg.FixedAlloc = map[string]int{"extract": 2, "match": 2}
	cfg.WorkerListener = listen(t)
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	machines := n.pool.MachineList()
	if len(machines) != 2 {
		t.Fatalf("%d pool machines, want 2", len(machines))
	}
	// A joining worker backs the first unbacked machine in list order.
	if err := n.pool.Fail(machines[1].ID); err != nil {
		t.Fatal(err)
	}
	w, err := worker.Dial(worker.Config{Addr: cfg.WorkerListener.Addr().String(), Name: "w",
		Build: func(seed int64) (map[string]engine.BoltFactory, error) {
			return OperatorFactories(fastFile, seed), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	go w.Run()
	defer w.Close()
	waitFor(t, "the join's placement", func() bool {
		rem := n.Status().Remote
		return rem["extract"]+rem["match"] == cfg.SlotsPerMachine
	})
	if w.Machine() != machines[0].ID {
		t.Fatalf("worker backs machine %d, want %d", w.Machine(), machines[0].ID)
	}

	n.tenant.Sup.Tick()
	if alloc := n.Status().Alloc; alloc["extract"] != 1 || alloc["match"] != 1 {
		t.Fatalf("allocation %v after the forced shrink, want one executor per bolt", alloc)
	}
	waitFor(t, "the rebuilt executors placed on the worker", func() bool {
		rem := n.Status().Remote
		return rem["extract"] == 1 && rem["match"] == 1
	})
}

// TestFixedAllocationHolds: the burst that makes the supervised node act
// leaves a node on a fixed allocation where it started — no round runs,
// nothing is decided, and the gate, with no snapshot to plan from, sheds
// nothing for overload.
func TestFixedAllocationHolds(t *testing.T) {
	const burst = 1000
	run := func(fixed map[string]int) Report {
		t.Helper()
		cfg, _ := testConfig()
		cfg.FixedAlloc = fixed
		n, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		send(t, n.Status().TCPAddr, "burst", "rec", burst)
		return n.Drain()
	}
	if sup := run(nil); sup.Rounds == 0 || len(sup.History) == 0 {
		t.Fatalf("the supervised node did not act on the burst: %d rounds, history %v", sup.Rounds, sup.History)
	}
	fixed := map[string]int{"extract": 3, "match": 3}
	rep := run(fixed)
	if rep.Rounds != 0 || len(rep.History) != 0 {
		t.Errorf("fixed node ran %d rounds, history %v; want none", rep.Rounds, rep.History)
	}
	if !maps.Equal(rep.Alloc, fixed) {
		t.Errorf("final allocation %v, want the fixed %v", rep.Alloc, fixed)
	}
	if st := rep.Gate; st.ShedOverload != 0 || rep.Completions != st.Admitted {
		t.Errorf("fixed node shed %d for overload, completed %d of %d admitted", st.ShedOverload, rep.Completions, st.Admitted)
	}
}

// TestFixedAllocationClipsToBoltTasks: a fixed count above one bolt's own
// task count boots with that bolt at its tasks, while a bolt with more
// tasks keeps the count it was given.
func TestFixedAllocationClipsToBoltTasks(t *testing.T) {
	tf := topology.File{
		Operators: []topology.FileOperator{{Name: "extract", ServiceRate: 5000}, {Name: "sink", ServiceRate: 5000}},
		Edges:     []topology.FileEdge{{From: "extract", To: "sink", Selectivity: 1}},
	}
	cfg, _ := testConfig()
	cfg.Build = func(b *engine.TopologyBuilder) {
		f := OperatorFactories(tf, 1)
		b.Bolt("extract", 8, f["extract"]).Bolt("sink", 2, f["sink"]).ShuffleOn("e0", "extract", "sink")
	}
	cfg.FixedAlloc = map[string]int{"extract": 3, "sink": 3}
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got, want := n.Drain().Alloc, map[string]int{"extract": 3, "sink": 2}; !maps.Equal(got, want) {
		t.Errorf("allocation %v, want %v", got, want)
	}
}

// TestDrainIdempotentAndFailedStartLeaksNothing: a second Drain returns
// the first's report, Close after it is a no-op, and a Start that fails at
// its very last step — a taken TCP port, after the WAL, the engine, the
// worker endpoint and the HTTP listener are all up — gives everything
// back, the worker listener it was handed included.
func TestDrainIdempotentAndFailedStartLeaksNothing(t *testing.T) {
	cfg, _ := testConfig()
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	send(t, n.Status().TCPAddr, "c", "rec", 20)
	first := n.Drain()
	if again := n.Drain(); again.Completions != first.Completions || again.Rounds != first.Rounds || first.Completions != 20 {
		t.Errorf("second Drain reported %+v, first %+v", again, first)
	}
	n.Close()

	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	before := runtime.NumGoroutine()
	cfg.WALDir = t.TempDir()
	cfg.WorkerListener = listen(t)
	cfg.HTTPAddr = freeAddr(t)
	cfg.TCPAddr = taken.Addr().String()
	if n, err := Start(cfg); err == nil {
		n.Close()
		t.Fatal("Start succeeded on a taken TCP port")
	}
	waitFor(t, "the failed Start's goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
	for _, addr := range []string{cfg.HTTPAddr, cfg.WorkerListener.Addr().String()} {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			t.Errorf("listener on %s leaked: %v", addr, err)
			continue
		}
		l.Close()
	}
}
