package engine

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/obs"
)

// fakeRemote is an in-process RemoteExecutor: it "hosts" a stateless bolt
// that emits fanout children per input tuple, with injectable transport
// failures on either leg (the send and the result).
type fakeRemote struct {
	fanout int
	// sendErrAfter, when >= 0, makes ProcessBatch return an error once
	// that many batches have been accepted (the send leg dies).
	sendErrAfter int
	// resultErrAfter, when >= 0, makes the done callback report an error
	// after that many successful batches (the result frame is lost).
	resultErrAfter int
	// short makes every result carry one emission list fewer than its
	// batch had items (a broken or hostile peer).
	short bool

	mu      sync.Mutex
	batches int
	items   int
}

func newFakeRemote(fanout int) *fakeRemote {
	return &fakeRemote{fanout: fanout, sendErrAfter: -1, resultErrAfter: -1}
}

func (f *fakeRemote) stats() (batches, items int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.batches, f.items
}

func (f *fakeRemote) ProcessBatch(bolt string, items []RemoteItem, done func(RemoteResult, error)) error {
	f.mu.Lock()
	if f.sendErrAfter >= 0 && f.batches >= f.sendErrAfter {
		f.mu.Unlock()
		return errors.New("fakeRemote: connection down")
	}
	f.batches++
	n := f.batches
	f.items += len(items)
	f.mu.Unlock()
	if f.resultErrAfter >= 0 && n > f.resultErrAfter {
		done(RemoteResult{}, errors.New("fakeRemote: result lost"))
		return nil
	}
	emitted := make([][]Values, len(items))
	for i, it := range items {
		for c := 0; c < f.fanout; c++ {
			emitted[i] = append(emitted[i], Values{it.Values[0], c})
		}
	}
	if f.short {
		emitted = emitted[:len(emitted)-1]
	}
	done(RemoteResult{Emitted: emitted}, nil)
	return nil
}

// trickleSpout emits n tuples with a short pause every stride, forcing the
// drain loops through many popAll rounds (and so many remote batches).
type trickleSpout struct {
	n, stride int
	pause     time.Duration
}

func (s *trickleSpout) Run(ctx SpoutContext) error {
	for i := 0; i < s.n; i++ {
		select {
		case <-ctx.Done():
			return nil
		default:
		}
		if s.stride > 0 && i%s.stride == 0 {
			time.Sleep(s.pause) // workload: the spout's pacing
		}
		ctx.Emit(Values{i})
	}
	<-ctx.Done()
	return nil
}

func remoteTestTopo(t *testing.T, n int) (*Topology, *collectBolt) {
	t.Helper()
	collector, factory := sharedCollector()
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &trickleSpout{n: n, stride: 50, pause: time.Millisecond} }).
		Bolt("fan", 4, func(int) Bolt {
			return BoltFunc(func(tu Tuple, emit Emit) error {
				for j := 0; j < 3; j++ {
					emit(Values{tu.Values[0], j})
				}
				return nil
			})
		}).
		Bolt("sink", 8, factory).
		Shuffle("src", "fan").
		Shuffle("fan", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo, collector
}

// TestBindExecutorRemote routes half of a mid-topology bolt through a
// remote destination and checks the books are indistinguishable from the
// all-local run: every root completes, the full fan-out reaches the sink,
// and the remote carried real traffic.
func TestBindExecutorRemote(t *testing.T) {
	const n = 500
	topo, collector := remoteTestTopo(t, n)
	run := startTopo(t, topo, map[string]int{"fan": 2, "sink": 4})
	remote := newFakeRemote(3)
	if err := run.BindExecutor("fan", 0, remote); err != nil {
		t.Fatal(err)
	}
	if got, _ := run.RemoteBound("fan"); got != 1 {
		t.Fatalf("RemoteBound = %d, want 1", got)
	}
	waitCompleted(t, run, n)
	if got := collector.count(); got != 3*n {
		t.Errorf("sink saw %d tuples, want %d", got, 3*n)
	}
	if _, items := remote.stats(); items == 0 {
		t.Error("remote executor carried no traffic")
	}
	// Rebinding to the same transport is a no-op; unbinding drains back to
	// a local goroutine and the books still balance.
	if err := run.BindExecutor("fan", 0, remote); err != nil {
		t.Fatal(err)
	}
	if err := run.BindExecutor("fan", 0, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := run.RemoteBound("fan"); got != 0 {
		t.Fatalf("RemoteBound after unbind = %d, want 0", got)
	}
}

// TestBindExecutorValidation exercises the error surface.
func TestBindExecutorValidation(t *testing.T) {
	topo, _ := remoteTestTopo(t, 1)
	run := startTopo(t, topo, map[string]int{"fan": 2, "sink": 2})
	if err := run.BindExecutor("nope", 0, newFakeRemote(0)); err == nil {
		t.Error("unknown bolt: want error")
	}
	if err := run.BindExecutor("fan", 7, newFakeRemote(0)); err == nil {
		t.Error("executor out of range: want error")
	}
	if _, err := run.RemoteBound("nope"); err == nil {
		t.Error("RemoteBound unknown bolt: want error")
	}
	waitCompleted(t, run, 1)
	if err := run.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := run.BindExecutor("fan", 0, newFakeRemote(0)); !errors.Is(err, ErrStopped) {
		t.Errorf("BindExecutor after Stop = %v, want ErrStopped", err)
	}
}

// TestRemoteSendFailureSelfHeals kills the transport's send leg while a
// burst is in flight: the binding must self-heal to a local replacement and
// replay the stranded backlog, losing nothing.
func TestRemoteSendFailureSelfHeals(t *testing.T) {
	const n = 500
	topo, collector := remoteTestTopo(t, n)
	run := startTopo(t, topo, map[string]int{"fan": 2, "sink": 4})
	remote := newFakeRemote(3)
	remote.sendErrAfter = 1 // first batch lands, then the conn dies
	if err := run.BindExecutor("fan", 0, remote); err != nil {
		t.Fatal(err)
	}
	waitCompleted(t, run, n)
	if got := collector.count(); got != 3*n {
		t.Errorf("sink saw %d tuples, want %d (lost through the transport failure)", got, 3*n)
	}
	waitRemoteUnbound(t, run, "fan")
	if run.ExecutorFailures() == 0 {
		t.Error("transport failure not accounted as an executor failure")
	}
}

// TestRemoteResultLossReplays loses every result frame after the first
// batch: the pinned batches must replay through the route table (the
// at-least-once window) and the run still completes every root.
func TestRemoteResultLossReplays(t *testing.T) {
	const n = 500
	topo, collector := remoteTestTopo(t, n)
	run := startTopo(t, topo, map[string]int{"fan": 2, "sink": 4})
	remote := newFakeRemote(3)
	remote.resultErrAfter = 1
	if err := run.BindExecutor("fan", 0, remote); err != nil {
		t.Fatal(err)
	}
	waitCompleted(t, run, n)
	if got := collector.count(); got != 3*n {
		t.Errorf("sink saw %d tuples, want %d", got, 3*n)
	}
	waitRemoteUnbound(t, run, "fan")
}

// TestRemoteShortResultReplays: a result one emission list short must not
// ack the uncovered item's tree without its children. The batch replays
// and the binding heals, so every child reaches the sink and the books
// balance.
func TestRemoteShortResultReplays(t *testing.T) {
	const n = 500
	topo, collector := remoteTestTopo(t, n)
	run := startTopo(t, topo, map[string]int{"fan": 2, "sink": 4})
	remote := newFakeRemote(3)
	remote.short = true
	if err := run.BindExecutor("fan", 0, remote); err != nil {
		t.Fatal(err)
	}
	waitCompleted(t, run, n)
	if got := collector.count(); got != 3*n {
		t.Errorf("sink saw %d tuples, want %d (children lost behind a short result)", got, 3*n)
	}
	if started, completed, _ := run.RootTotals(); completed != started {
		t.Errorf("completed %d of %d admitted roots", completed, started)
	}
	waitRemoteUnbound(t, run, "fan")
	if _, items := remote.stats(); items == 0 {
		t.Error("remote executor carried no traffic")
	}
}

// waitRemoteUnbound waits for the asynchronous self-heal to land.
func waitRemoteUnbound(t *testing.T, run *Run, bolt string) {
	t.Helper()
	waitFor(t, "the remote binding to self-heal", func() bool {
		got, _ := run.RemoteBound(bolt)
		return got == 0
	})
}

// lockstepSpout emits the same preallocated tuple once per token on step, so
// the caller paces the topology one root (and so one remote batch) at a time.
type lockstepSpout struct{ step chan struct{} }

func (s *lockstepSpout) Run(ctx SpoutContext) error {
	v := Values{"x"}
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-s.step:
			ctx.Emit(v)
		}
	}
}

// ackRemote is a RemoteExecutor that allocates nothing: every batch resolves
// at once with no emissions, its empty lists sliced from ackEmitted.
type ackRemote struct{}

var ackEmitted [RemoteBatchCap][]Values

func (ackRemote) ProcessBatch(_ string, items []RemoteItem, done func(RemoteResult, error)) error {
	done(RemoteResult{Emitted: ackEmitted[:len(items)]}, nil)
	return nil
}

// TestRemoteBatchAllocs guards the drain loop's per-batch constants: a
// one-item batch through a remote-bound executor — pin, completion, apply,
// ack — costs no more allocations than the root tuple itself, so neither a
// per-batch closure nor a per-batch pin can come back unnoticed.
func TestRemoteBatchAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	sp := &lockstepSpout{step: make(chan struct{})}
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return sp }).
		Bolt("sink", 1, func(int) Bolt { return BoltFunc(func(Tuple, Emit) error { return nil }) }).
		Shuffle("src", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"sink": 1})
	var done int64
	one := func() {
		sp.step <- struct{}{}
		done++
		for n, _ := run.Completions(); n < done; n, _ = run.Completions() {
			runtime.Gosched()
		}
	}
	local := testing.AllocsPerRun(2000, one)
	if err := run.BindExecutor("sink", 0, &ackRemote{}); err != nil {
		t.Fatal(err)
	}
	remote := testing.AllocsPerRun(2000, one)
	t.Logf("allocs per root: local %.2f, remote %.2f", local, remote)
	if remote > local {
		t.Errorf("a one-item remote batch costs %.2f allocs per root, the local path %.2f", remote, local)
	}
}
