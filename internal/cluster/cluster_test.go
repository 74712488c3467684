package cluster

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

func paperPool(t *testing.T, machines int) *Pool {
	t.Helper()
	p, err := PaperPool(machines)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  PoolConfig
	}{
		{"zero slots", PoolConfig{SlotsPerMachine: 0, MaxMachines: 1}},
		{"negative reserved", PoolConfig{SlotsPerMachine: 5, ReservedSlots: -1, MaxMachines: 1}},
		{"zero machines", PoolConfig{SlotsPerMachine: 5, MaxMachines: 0}},
		{"reserved eats pool", PoolConfig{SlotsPerMachine: 5, ReservedSlots: 5, MaxMachines: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestNewPoolBounds(t *testing.T) {
	cfg := PoolConfig{SlotsPerMachine: 5, ReservedSlots: 3, MaxMachines: 5}
	if _, err := NewPool(cfg, 0); err == nil {
		t.Error("zero start machines should be rejected")
	}
	if _, err := NewPool(cfg, 6); err == nil {
		t.Error("start above cap should be rejected")
	}
}

func TestPaperPoolArithmetic(t *testing.T) {
	// 5 machines x 5 slots - 3 reserved = 22; 4 machines -> 17.
	tests := []struct{ machines, kmax int }{
		{5, 22}, {4, 17}, {3, 12}, {1, 2},
	}
	for _, tt := range tests {
		p := paperPool(t, tt.machines)
		if got := p.Kmax(); got != tt.kmax {
			t.Errorf("%d machines: Kmax = %d, want %d", tt.machines, got, tt.kmax)
		}
	}
}

func TestMachinesFor(t *testing.T) {
	p := paperPool(t, 4)
	tests := []struct{ procs, machines, kmax int }{
		{17, 4, 17}, {18, 5, 22}, {22, 5, 22}, {12, 3, 12}, {1, 1, 2}, {0, 1, 2},
	}
	for _, tt := range tests {
		m, k, err := p.MachinesFor(tt.procs)
		if err != nil {
			t.Fatalf("MachinesFor(%d): %v", tt.procs, err)
		}
		if m != tt.machines || k != tt.kmax {
			t.Errorf("MachinesFor(%d) = (%d, %d), want (%d, %d)", tt.procs, m, k, tt.machines, tt.kmax)
		}
	}
	if _, _, err := p.MachinesFor(23); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("over-cap request: err = %v, want ErrNoCapacity", err)
	}
	if _, _, err := p.MachinesFor(-1); err == nil {
		t.Error("negative processors should error")
	}
}

func TestResizeScaleOutCost(t *testing.T) {
	p := paperPool(t, 4)
	tr, err := p.Resize(22)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Kind != "scale-out" || tr.MachinesBefore != 4 || tr.MachinesAfter != 5 {
		t.Errorf("transition = %+v", tr)
	}
	want := PaperCosts().Rebalance + PaperCosts().MachineColdStart
	if tr.Pause != want {
		t.Errorf("pause = %v, want %v (ExpA cold-start spike)", tr.Pause, want)
	}
	if p.Kmax() != 22 {
		t.Errorf("Kmax after scale-out = %d", p.Kmax())
	}
}

func TestResizeScaleInCost(t *testing.T) {
	p := paperPool(t, 5)
	tr, err := p.Resize(17)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Kind != "scale-in" || tr.MachinesAfter != 4 {
		t.Errorf("transition = %+v", tr)
	}
	want := PaperCosts().Rebalance + PaperCosts().MachineRelease
	if tr.Pause != want {
		t.Errorf("pause = %v, want %v (ExpB release bump)", tr.Pause, want)
	}
	if got := PaperCosts().MachineColdStart; tr.Pause >= got+PaperCosts().Rebalance {
		t.Errorf("scale-in must be cheaper than scale-out: %v", tr.Pause)
	}
}

func TestResizeNoop(t *testing.T) {
	p := paperPool(t, 5)
	tr, err := p.Resize(22)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Kind != "rebalance" || tr.MachinesAfter != 5 {
		t.Errorf("transition = %+v", tr)
	}
}

func TestResizeOverCapacity(t *testing.T) {
	p := paperPool(t, 5)
	if _, err := p.Resize(23); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("err = %v, want ErrNoCapacity", err)
	}
	if p.Machines() != 5 {
		t.Error("failed resize must not change the pool")
	}
}

func TestRebalanceCheaperThanDefault(t *testing.T) {
	// The paper's improvement: JVM-reusing rebalance takes seconds versus
	// Storm's default 1-2 minutes.
	const stormDefault = 90 * time.Second
	c := PaperCosts()
	if c.Rebalance >= stormDefault/10 {
		t.Errorf("improved rebalance %v should be far below Storm's default %v", c.Rebalance, stormDefault)
	}
	p := paperPool(t, 5)
	tr := p.Rebalance()
	if tr.Kind != "rebalance" || tr.Pause != c.Rebalance {
		t.Errorf("transition = %+v", tr)
	}
}

func TestPoolConcurrentAccess(t *testing.T) {
	p := paperPool(t, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g%2 == 0 {
					_, _ = p.Resize(17 + (i%2)*5)
				} else {
					_ = p.Kmax()
					_ = p.MachineList()
				}
			}
		}(g)
	}
	wg.Wait()
	if m := p.Machines(); m != 4 && m != 5 {
		t.Errorf("machines = %d after churn", m)
	}
}

// TestPoolTransitionsRetainNothing is the regression guard for the
// unbounded Pool.history a long-lived `drsctl serve` used to leak into:
// the heap a pool holds must not grow with the number of control actions
// applied to it. 10 000 retained Transitions were ~400 KiB.
func TestPoolTransitionsRetainNothing(t *testing.T) {
	p := paperPool(t, 4)
	drive := func(n int) {
		for i := 0; i < n; i++ {
			p.Rebalance()
			if _, err := p.Resize(17 + (i%2)*5); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	drive(100) // warm: fleet slice and worker map at their steady size
	before := heap()
	drive(5000) // 10 000 transitions
	after := heap()
	runtime.KeepAlive(p)
	if grown := int64(after) - int64(before); grown > 64<<10 {
		t.Errorf("pool retained %d bytes across 10000 transitions, want none", grown)
	}
}

func TestZeroCostModel(t *testing.T) {
	p, err := NewPool(PoolConfig{SlotsPerMachine: 2, MaxMachines: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p.Resize(6)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Pause != 0 {
		t.Errorf("zero cost model gave pause %v", tr.Pause)
	}
	if tr.MachinesAfter != 3 {
		t.Errorf("machines = %d, want 3", tr.MachinesAfter)
	}
	_ = time.Second // keep time imported for cost comparisons above
}
