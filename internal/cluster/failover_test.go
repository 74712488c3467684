package cluster

import (
	"errors"
	"testing"
	"time"
)

// TestPoolMachineLifecycle exercises the Fail/Recover/Decommission arc on
// a bare pool: capacity tracks the live set, failed machines occupy the
// provider cap, and decommissioning frees it.
func TestPoolMachineLifecycle(t *testing.T) {
	pool, err := NewPool(PoolConfig{SlotsPerMachine: 2, MaxMachines: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Machines() != 3 || pool.Kmax() != 6 || len(pool.MachineList()) != 3 {
		t.Fatalf("fresh pool: live=%d kmax=%d provisioned=%d", pool.Machines(), pool.Kmax(), len(pool.MachineList()))
	}
	if err := pool.Fail(2); err != nil {
		t.Fatal(err)
	}
	if pool.Machines() != 2 || pool.Kmax() != 4 || len(pool.MachineList()) != 3 {
		t.Fatalf("after fail: live=%d kmax=%d provisioned=%d", pool.Machines(), pool.Kmax(), len(pool.MachineList()))
	}
	// The wreck occupies the cap: only one more machine is provisionable.
	if pool.MaxKmax() != 6 {
		t.Fatalf("MaxKmax with one failed machine = %d, want 6", pool.MaxKmax())
	}
	if err := pool.Fail(2); err == nil {
		t.Fatal("double fail accepted")
	}
	if err := pool.Fail(99); !errors.Is(err, ErrUnknownMachine) {
		t.Fatalf("fail unknown: %v", err)
	}
	if err := pool.Recover(2); err != nil {
		t.Fatal(err)
	}
	if pool.Machines() != 3 || pool.Kmax() != 6 {
		t.Fatalf("after recover: live=%d kmax=%d", pool.Machines(), pool.Kmax())
	}
	if err := pool.Recover(2); err == nil {
		t.Fatal("recover of a live machine accepted")
	}
	if err := pool.Decommission(1); err == nil {
		t.Fatal("decommission of a live machine accepted")
	}
	if err := pool.Fail(1); err != nil {
		t.Fatal(err)
	}
	if err := pool.Decommission(1); err != nil {
		t.Fatal(err)
	}
	if len(pool.MachineList()) != 2 || pool.MaxKmax() != 8 {
		t.Fatalf("after decommission: provisioned=%d maxKmax=%d", len(pool.MachineList()), pool.MaxKmax())
	}
}

// TestSchedulerFailoverShrinkAndRecovery: a machine crash re-arbitrates
// out of band — grants shrink fairly with "slots-lost" attribution and the
// per-tenant lost counters tick; recovery re-grants the standing demands.
func TestSchedulerFailoverShrinkAndRecovery(t *testing.T) {
	pool, err := NewPool(PoolConfig{SlotsPerMachine: 2, MaxMachines: 5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestScheduler(t, pool)
	a, err := s.Register(TenantConfig{Name: "a", MinSlots: 2, InitialSlots: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Register(TenantConfig{Name: "b", MinSlots: 2, InitialSlots: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The demand-driven negotiation may have recycled machines during
	// registration; crash whichever live machine is newest.
	live := pool.LiveMachines()
	victim := live[len(live)-1].ID
	if err := s.FailMachine(victim); err != nil {
		t.Fatal(err)
	}
	st := s.State()
	if st.Capacity != 8 {
		t.Fatalf("capacity after crash = %d, want 8", st.Capacity)
	}
	if st.Leased > st.Capacity {
		t.Fatalf("double-leased after crash: %d over %d", st.Leased, st.Capacity)
	}
	if got := grants(s); got["a"] != 4 || got["b"] != 4 {
		t.Fatalf("grants after crash = %v, want the fair 4/4", got)
	}
	if a.LostSlots() != 1 || b.LostSlots() != 1 {
		t.Fatalf("lost counters = %d/%d, want 1/1", a.LostSlots(), b.LostSlots())
	}
	var lostEvents, failEvents int
	for _, ev := range s.History() {
		switch ev.Kind {
		case "slots-lost":
			lostEvents++
		case "machine-fail":
			failEvents++
		}
	}
	if lostEvents != 2 || failEvents != 1 {
		t.Fatalf("history: %d slots-lost, %d machine-fail events", lostEvents, failEvents)
	}
	// No slot may sit on the dead machine.
	for _, row := range st.Placement {
		if row.ID == victim {
			t.Fatalf("placement still uses failed machine: %+v", row)
		}
	}
	// Recovery: the standing demands are re-granted immediately.
	if err := s.RecoverMachine(victim); err != nil {
		t.Fatal(err)
	}
	if got := grants(s); got["a"] != 5 || got["b"] != 5 {
		t.Fatalf("grants after recovery = %v, want 5/5", got)
	}
	if a.LostSlots() != 1 {
		t.Fatalf("lost counter changed on recovery: %d", a.LostSlots())
	}
}

// TestSchedulerFailoverRespectsFloors: the post-crash shrink obeys the
// same floor rule as every arbitration — nobody goes below
// min(demand, MinSlots) while capacity allows.
func TestSchedulerFailoverRespectsFloors(t *testing.T) {
	pool, err := NewPool(PoolConfig{SlotsPerMachine: 2, MaxMachines: 5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestScheduler(t, pool)
	if _, err := s.Register(TenantConfig{Name: "a", MinSlots: 6, InitialSlots: 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(TenantConfig{Name: "b", MinSlots: 1, InitialSlots: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.FailMachine(1); err != nil {
		t.Fatal(err)
	}
	// Capacity 8; floors 6+1 = 7 fit, the spare slot water-fills to b.
	if got := grants(s); got["a"] != 6 || got["b"] != 2 {
		t.Fatalf("grants after crash = %v, want a=6 (floored) b=2", got)
	}
}

// TestStragglerPlacement: flagging a machine as a straggler moves leases
// off it as far as healthy capacity allows, and back when it clears. With
// one tenant the per-machine Leased rows are that tenant's placement.
func TestStragglerPlacement(t *testing.T) {
	pool, err := NewPool(PoolConfig{SlotsPerMachine: 4, MaxMachines: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestScheduler(t, pool)
	// 5 slots need both machines, so the demand-driven negotiation cannot
	// shrink the pool under the test.
	if _, err := s.Register(TenantConfig{Name: "a", InitialSlots: 5}); err != nil {
		t.Fatal(err)
	}
	leased := func() map[int]int {
		out := map[int]int{}
		for _, row := range s.State().Placement {
			out[row.ID] = row.Leased
		}
		return out
	}
	if got := leased(); got[1] != 4 || got[2] != 1 {
		t.Fatalf("initial placement = %v, want 4 on machine 1 and 1 on machine 2", got)
	}
	if err := s.MarkStraggler(1, true); err != nil {
		t.Fatal(err)
	}
	if got := leased(); got[2] != 4 || got[1] != 1 {
		t.Fatalf("placement with machine 1 straggling = %v, want the bulk on machine 2", got)
	}
	st := s.State()
	if len(st.Placement) != 2 || st.Placement[0].ID != 2 || !st.Placement[1].Straggler {
		t.Fatalf("placement rows = %+v, want healthy machine 2 first", st.Placement)
	}
	if err := s.MarkStraggler(1, false); err != nil {
		t.Fatal(err)
	}
	if got := leased(); got[1] != 4 || got[2] != 1 {
		t.Fatalf("placement after clearing = %v, want the bulk back on machine 1", got)
	}
}

// TestSlotsLostAttributionBounded: a preemption overlay that unwinds in
// the same arbitration as a machine failure must not be booked as a
// failure loss — the slots-lost accounting is capped by the capacity the
// crash actually removed.
func TestSlotsLostAttributionBounded(t *testing.T) {
	s, batch, rt := preemptScenario(t, CostModel{}, time.Minute)
	batch.Report(TenantReport{Lambda0: 10, ShrinkCost: 0.05})
	rt.Report(TenantReport{Lambda0: 10, Violating: true, GrowBenefit: 2.0})
	if _, err := rt.Resize(14); err != nil {
		t.Fatal(err)
	}
	if got := grants(s); got["rt"] != 14 || got["batch"] != 6 {
		t.Fatalf("precondition: preemption should hold, got %v", got)
	}
	// The violation clears silently (Report alone does not arbitrate);
	// the next arbitration is triggered by a 1-slot machine crash. rt's
	// grant drops by 5 (4 unwound + 1 lost) but only 1 slot died.
	rt.Report(TenantReport{Lambda0: 10, Violating: false})
	live := s.cfg.Pool.LiveMachines()
	if err := s.FailMachine(live[len(live)-1].ID); err != nil {
		t.Fatal(err)
	}
	if total := rt.LostSlots() + batch.LostSlots(); total > 1 {
		t.Fatalf("attributed %d slots to a 1-slot crash (rt=%d batch=%d)",
			total, rt.LostSlots(), batch.LostSlots())
	}
	st := s.State()
	if st.Leased > st.Capacity {
		t.Fatalf("double-leased after unwind+crash: %d over %d", st.Leased, st.Capacity)
	}
}

// TestTenantSetPriority: flipping ranks re-runs the arbitration — the
// preemption that held under the old order unwinds under the new one.
func TestTenantSetPriority(t *testing.T) {
	s, batch, rt := preemptScenario(t, CostModel{}, time.Minute)
	batch.Report(TenantReport{Lambda0: 10, ShrinkCost: 0.05})
	rt.Report(TenantReport{Lambda0: 10, Violating: true, GrowBenefit: 2.0})
	if _, err := rt.Resize(14); err != nil {
		t.Fatal(err)
	}
	if got := grants(s); got["rt"] != 14 || got["batch"] != 6 {
		t.Fatalf("precondition: preemption should hold, got %v", got)
	}
	// Demote the claimant below its victim: the transfer must unwind.
	if err := rt.SetPriority(-1); err != nil {
		t.Fatal(err)
	}
	if got := grants(s); got["rt"] != 10 || got["batch"] != 10 {
		t.Fatalf("grants after demotion = %v, want the fair 10/10", got)
	}
}
