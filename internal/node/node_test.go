package node

import (
	"bytes"
	"log/slog"
	"maps"
	"net"
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
		Tasks:           8,
		Tmax:            0.2,
		Interval:        50 * time.Millisecond,
		SlotsPerMachine: 2,
		MaxMachines:     4,
		TCPAddr:         "127.0.0.1:0",
		Logger:          slog.New(slog.NewTextHandler(logs, &slog.HandlerOptions{Level: LevelNotice})),
	}, logs
}

// waitFor polls cond until it holds; the deadline only bounds a hang. It
// is for state that announces no change — executor placement, the
// goroutine count — so it must sleep between reads; the millisecond is
// the poll period, not a guess at how long anything takes. Anything the
// node logs is awaited with awaitLog instead.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
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
// after Drain, admitted == completed and the shed counters add up.
func TestBooksBalance(t *testing.T) {
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
	if rep.Completions != st.Admitted {
		t.Errorf("engine completed %d of %d admitted", rep.Completions, st.Admitted)
	}
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
	cfg.Tasks = 1
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
// workers joined; a killed worker surfaces as a failed pool machine, its
// executors heal, and the books still balance.
func TestWorkerGate(t *testing.T) {
	cfg, logs := testConfig()
	cfg.WorkerAddr = freeAddr(t)
	cfg.MinWorkers = 2
	cfg.Seed = 7
	dial := func(name string) *worker.Worker {
		awaitLog(t, logs, "worker registration open", 1)
		w, err := worker.Dial(worker.Config{Addr: cfg.WorkerAddr, Name: name,
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
	// order); kill the worker behind it.
	waitFor(t, "placement onto the workers", func() bool { return n.Status().Remote["extract"] == 1 })
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

// TestWorkerJoinsAfterStart: with MinWorkers 0 Start returns at once and
// reports the worker endpoint it bound; a worker dialling that address
// afterwards joins, hosts executors and completes records.
func TestWorkerJoinsAfterStart(t *testing.T) {
	cfg, logs := testConfig()
	cfg.WorkerAddr = "127.0.0.1:0"
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	addr := n.Status().WorkerAddr
	if addr == "" || addr == cfg.WorkerAddr {
		t.Fatalf("Status().WorkerAddr = %q, want the bound address", addr)
	}
	w, err := worker.Dial(worker.Config{Addr: addr, Name: "late",
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

// TestDrainIdempotentAndFailedStartLeaksNothing: a second Drain returns
// the first's report, Close after it is a no-op, and a Start that fails at
// its very last step — a taken TCP port, after the WAL, the engine, the
// worker endpoint and the HTTP listener are all up — gives everything
// back.
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
	cfg.WorkerAddr = freeAddr(t)
	cfg.HTTPAddr = freeAddr(t)
	cfg.TCPAddr = taken.Addr().String()
	if n, err := Start(cfg); err == nil {
		n.Close()
		t.Fatal("Start succeeded on a taken TCP port")
	}
	waitFor(t, "the failed Start's goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
	for _, addr := range []string{cfg.HTTPAddr, cfg.WorkerAddr} {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			t.Errorf("listener on %s leaked: %v", addr, err)
			continue
		}
		l.Close()
	}
}
