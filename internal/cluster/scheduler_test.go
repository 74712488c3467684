package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// flatPool builds a pool with single-slot quantization and free
// transitions: capacity == machines, so fairness arithmetic is exact.
func flatPool(t *testing.T, start, max int) *Pool {
	t.Helper()
	p, err := NewPool(PoolConfig{SlotsPerMachine: 1, MaxMachines: max}, start)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newTestScheduler(t *testing.T, pool *Pool) *Scheduler {
	t.Helper()
	s, err := NewScheduler(SchedulerConfig{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// grants reads the current grant per tenant name.
func grants(s *Scheduler) map[string]int {
	out := make(map[string]int)
	for _, ts := range s.State().Tenants {
		out[ts.Name] = ts.Granted
	}
	return out
}

// TestWeightedMaxMinGrants drives the arbiter through contended demand
// tables and checks the water-filling outcome: floors first, then slots in
// proportion to weight, surplus from satisfied tenants redistributed.
func TestWeightedMaxMinGrants(t *testing.T) {
	type tenant struct {
		name   string
		weight float64
		floor  int
		demand int
		want   int
	}
	tests := []struct {
		name     string
		capacity int
		tenants  []tenant
	}{
		{
			name:     "equal weights split evenly",
			capacity: 12,
			tenants: []tenant{
				{name: "a", weight: 1, demand: 10, want: 6},
				{name: "b", weight: 1, demand: 10, want: 6},
			},
		},
		{
			name:     "two-to-one weights give two-to-one shares",
			capacity: 12,
			tenants: []tenant{
				{name: "a", weight: 2, demand: 12, want: 8},
				{name: "b", weight: 1, demand: 12, want: 4},
			},
		},
		{
			name:     "satisfied tenant's surplus flows to the hungry",
			capacity: 12,
			tenants: []tenant{
				{name: "a", weight: 1, demand: 3, want: 3},
				{name: "b", weight: 1, demand: 20, want: 9},
			},
		},
		{
			name:     "floors are honored before fairness",
			capacity: 10,
			tenants: []tenant{
				{name: "a", weight: 1, floor: 7, demand: 9, want: 7},
				{name: "b", weight: 4, demand: 20, want: 3},
			},
		},
		{
			name:     "under-capacity demands are fully granted",
			capacity: 20,
			tenants: []tenant{
				{name: "a", weight: 1, demand: 4, want: 4},
				{name: "b", weight: 3, demand: 9, want: 9},
			},
		},
		{
			name:     "three-way weighted contention",
			capacity: 18,
			tenants: []tenant{
				{name: "a", weight: 1, demand: 30, want: 3},
				{name: "b", weight: 2, demand: 30, want: 6},
				{name: "c", weight: 3, demand: 30, want: 9},
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := newTestScheduler(t, flatPool(t, 1, tt.capacity))
			leases := make(map[string]*Tenant)
			for _, tn := range tt.tenants {
				lease, err := s.Register(TenantConfig{Name: tn.name, Weight: tn.weight, MinSlots: tn.floor})
				if err != nil {
					t.Fatal(err)
				}
				leases[tn.name] = lease
			}
			for _, tn := range tt.tenants {
				// A contended grow request may be granted partially or not at
				// all (ErrNoCapacity); both are legitimate outcomes here.
				if _, err := leases[tn.name].Resize(tn.demand); err != nil && !errors.Is(err, ErrNoCapacity) {
					t.Fatal(err)
				}
			}
			got := grants(s)
			for _, tn := range tt.tenants {
				if got[tn.name] != tn.want {
					t.Errorf("tenant %s: granted %d, want %d (all: %v)", tn.name, got[tn.name], tn.want, got)
				}
			}
			st := s.State()
			if st.Leased > st.Capacity {
				t.Fatalf("double-leased: %d slots granted over capacity %d", st.Leased, st.Capacity)
			}
		})
	}
}

// TestArbitrationDeterministic re-runs the same contended arbitration via
// redundant Resize calls and checks grants do not churn.
func TestArbitrationDeterministic(t *testing.T) {
	s := newTestScheduler(t, flatPool(t, 1, 10))
	a, err := s.Register(TenantConfig{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Register(TenantConfig{Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Resize(8); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Resize(8); err != nil {
		t.Fatal(err)
	}
	first := grants(s)
	for i := 0; i < 5; i++ {
		_, _ = a.Resize(8)
		_, _ = b.Resize(8)
		if got := grants(s); got["a"] != first["a"] || got["b"] != first["b"] {
			t.Fatalf("grants churned on identical inputs: %v -> %v", first, got)
		}
	}
}

// preemptScenario builds a two-tenant contended scheduler: low-priority
// "batch" holds most of a maxed-out pool, high-priority "rt" wants more.
func preemptScenario(t *testing.T, costs CostModel, window time.Duration) (*Scheduler, *Tenant, *Tenant) {
	t.Helper()
	pool, err := NewPool(PoolConfig{SlotsPerMachine: 1, MaxMachines: 20, Costs: costs}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(SchedulerConfig{Pool: pool, CostWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := s.Register(TenantConfig{Name: "batch", Priority: 0, MinSlots: 6, InitialSlots: 14})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := s.Register(TenantConfig{Name: "rt", Priority: 1, MinSlots: 4, InitialSlots: 6})
	if err != nil {
		t.Fatal(err)
	}
	return s, batch, rt
}

// TestPreemptionFiresWhenGuardClears: a violating high-priority tenant
// whose marginal benefit dwarfs the victim's marginal cost takes slots,
// but never below the victim's floor.
func TestPreemptionFiresWhenGuardClears(t *testing.T) {
	s, batch, rt := preemptScenario(t, CostModel{}, time.Minute)
	batch.Report(TenantReport{Lambda0: 10, ShrinkCost: 0.05})
	rt.Report(TenantReport{Lambda0: 10, Violating: true, GrowBenefit: 2.0, ShrinkCost: math.Inf(1)})
	if _, err := rt.Resize(14); err != nil {
		t.Fatal(err)
	}
	got := grants(s)
	// Fair split of 20 between equal weights is 10/10; rt's violation plus
	// the cleared guard lets it take batch down to its floor of 6.
	if got["rt"] != 14 || got["batch"] != 6 {
		t.Fatalf("grants after preemption = %v, want rt=14 batch=6", got)
	}
	var preempts int
	for _, ev := range s.History() {
		if ev.Kind == "preempt" && ev.Tenant == "batch" {
			preempts++
		}
	}
	if preempts == 0 {
		t.Fatal("no preempt event recorded")
	}
	st := s.State()
	if st.Leased > st.Capacity {
		t.Fatalf("double-leased: %d over %d", st.Leased, st.Capacity)
	}
}

// TestPreemptionBlockedByBenefitGuard: when the victim's marginal cost
// exceeds the claimant's marginal benefit, preemption must not fire even
// though the claimant is violating and outranks the victim.
func TestPreemptionBlockedByBenefitGuard(t *testing.T) {
	s, batch, rt := preemptScenario(t, CostModel{}, time.Minute)
	batch.Report(TenantReport{Lambda0: 10, ShrinkCost: 3.0})
	rt.Report(TenantReport{Lambda0: 10, Violating: true, GrowBenefit: 2.0})
	if _, err := rt.Resize(14); err != nil && !errors.Is(err, ErrNoCapacity) {
		t.Fatal(err)
	}
	got := grants(s)
	if got["batch"] != 10 || got["rt"] != 10 {
		t.Fatalf("guard failed to hold: %v, want the fair 10/10 split", got)
	}
}

// TestPreemptionBlockedByPauseAmortization: even with a positive net
// benefit, the transfer must recoup both tenants' rebalance pauses within
// CostWindow — a thin margin over a short window must not clear.
func TestPreemptionBlockedByPauseAmortization(t *testing.T) {
	costs := CostModel{Rebalance: 3 * time.Second}
	s, batch, rt := preemptScenario(t, costs, 10*time.Second)
	// Net gain rate (2.0 - 1.9) * 4 slots * 10 s window = 4 sojourn-sec;
	// pause penalty (100+100 tuples/s) * 3 s = 600. Guard must block.
	batch.Report(TenantReport{Lambda0: 100, ShrinkCost: 1.9})
	rt.Report(TenantReport{Lambda0: 100, Violating: true, GrowBenefit: 2.0})
	if _, err := rt.Resize(14); err != nil && !errors.Is(err, ErrNoCapacity) {
		t.Fatal(err)
	}
	if got := grants(s); got["batch"] != 10 || got["rt"] != 10 {
		t.Fatalf("pause amortization guard failed: %v", got)
	}
	// The same transfer over a long window clears.
	s2, batch2, rt2 := preemptScenario(t, costs, time.Hour)
	batch2.Report(TenantReport{Lambda0: 100, ShrinkCost: 1.9})
	rt2.Report(TenantReport{Lambda0: 100, Violating: true, GrowBenefit: 2.0})
	if _, err := rt2.Resize(14); err != nil {
		t.Fatal(err)
	}
	if got := grants(s2); got["rt"] != 14 {
		t.Fatalf("amortized preemption did not fire: %v", got)
	}
}

// TestNoPreemptionWithoutViolation: priority alone never preempts — the
// claimant must be violating its Tmax.
func TestNoPreemptionWithoutViolation(t *testing.T) {
	s, batch, rt := preemptScenario(t, CostModel{}, time.Minute)
	batch.Report(TenantReport{Lambda0: 10, ShrinkCost: 0.01})
	rt.Report(TenantReport{Lambda0: 10, Violating: false, GrowBenefit: 5.0})
	if _, err := rt.Resize(14); err != nil && !errors.Is(err, ErrNoCapacity) {
		t.Fatal(err)
	}
	if got := grants(s); got["batch"] != 10 || got["rt"] != 10 {
		t.Fatalf("non-violating tenant preempted: %v", got)
	}
}

// TestNoPreemptionAcrossEqualPriority: equal priorities only ever share by
// fairness.
func TestNoPreemptionAcrossEqualPriority(t *testing.T) {
	pool := flatPool(t, 1, 20)
	s := newTestScheduler(t, pool)
	a, err := s.Register(TenantConfig{Name: "a", MinSlots: 4, InitialSlots: 14})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Register(TenantConfig{Name: "b", MinSlots: 4, InitialSlots: 6})
	if err != nil {
		t.Fatal(err)
	}
	a.Report(TenantReport{Lambda0: 10, ShrinkCost: 0.01})
	b.Report(TenantReport{Lambda0: 10, Violating: true, GrowBenefit: 5.0})
	if _, err := b.Resize(16); err != nil && !errors.Is(err, ErrNoCapacity) {
		t.Fatal(err)
	}
	if got := grants(s); got["a"] != 10 || got["b"] != 10 {
		t.Fatalf("equal-priority preemption happened: %v", got)
	}
}

// TestPreemptionSkipsUnreportedVictims: a tenant that never reported its
// utility cannot be preempted (a blind transfer could destabilize it).
func TestPreemptionSkipsUnreportedVictims(t *testing.T) {
	s, _, rt := preemptScenario(t, CostModel{}, time.Minute)
	rt.Report(TenantReport{Lambda0: 10, Violating: true, GrowBenefit: 5.0})
	if _, err := rt.Resize(14); err != nil && !errors.Is(err, ErrNoCapacity) {
		t.Fatal(err)
	}
	if got := grants(s); got["batch"] != 10 || got["rt"] != 10 {
		t.Fatalf("unreported victim preempted: %v", got)
	}
}

// TestPreemptionUnwindsWhenViolationClears: the transfer is an overlay on
// the fair allocation; the next arbitration after the claimant's report
// clears hands the slots back.
func TestPreemptionUnwindsWhenViolationClears(t *testing.T) {
	s, batch, rt := preemptScenario(t, CostModel{}, time.Minute)
	batch.Report(TenantReport{Lambda0: 10, ShrinkCost: 0.05})
	rt.Report(TenantReport{Lambda0: 10, Violating: true, GrowBenefit: 2.0})
	if _, err := rt.Resize(14); err != nil {
		t.Fatal(err)
	}
	if got := grants(s); got["batch"] != 6 {
		t.Fatalf("precondition: preemption should hold, got %v", got)
	}
	// The violation clears; any tenant's next request re-arbitrates.
	rt.Report(TenantReport{Lambda0: 10, Violating: false})
	if _, err := batch.Resize(14); err != nil && !errors.Is(err, ErrNoCapacity) {
		t.Fatal(err)
	}
	if got := grants(s); got["batch"] != 10 || got["rt"] != 10 {
		t.Fatalf("slots not returned after violation cleared: %v", got)
	}
}

// TestSchedulerPoolElasticity: aggregate demand pulls machines in and
// releases them, within the provider cap.
func TestSchedulerPoolElasticity(t *testing.T) {
	pool, err := NewPool(PoolConfig{SlotsPerMachine: 5, MaxMachines: 4, Costs: PaperCosts()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestScheduler(t, pool)
	a, err := s.Register(TenantConfig{Name: "a", InitialSlots: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pool.Machines() != 1 {
		t.Fatalf("pool grew early: %d machines", pool.Machines())
	}
	tr, err := a.Resize(12)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Machines() != 3 || a.Kmax() != 12 {
		t.Fatalf("pool = %d machines, grant = %d; want 3 and 12", pool.Machines(), a.Kmax())
	}
	if tr.Kind != "scale-out" || tr.Pause != PaperCosts().Rebalance+PaperCosts().MachineColdStart {
		t.Fatalf("grow transition = %+v, want scale-out with cold-start pause", tr)
	}
	tr, err = a.Resize(3)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Machines() != 1 || a.Kmax() != 3 {
		t.Fatalf("pool = %d machines, grant = %d; want 1 and 3", pool.Machines(), a.Kmax())
	}
	if tr.Kind != "scale-in" || tr.Pause != PaperCosts().Rebalance+PaperCosts().MachineRelease {
		t.Fatalf("shrink transition = %+v, want scale-in with release pause", tr)
	}
	// Demand beyond the provider cap: partial grant up to MaxKmax.
	if _, err := a.Resize(99); err != nil {
		t.Fatal(err)
	}
	if a.Kmax() != 20 {
		t.Fatalf("grant = %d, want the provider cap 20", a.Kmax())
	}
	// Asking again gains nothing: a plain capacity hold.
	if _, err := a.Resize(99); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("want ErrNoCapacity on zero-gain grow, got %v", err)
	}
}

// TestRegisterAndRelease: registration fails cleanly when the initial
// grant cannot fit, and a shrink to zero releases the slots to the
// survivors.
func TestRegisterAndRelease(t *testing.T) {
	s := newTestScheduler(t, flatPool(t, 1, 10))
	a, err := s.Register(TenantConfig{Name: "a", MinSlots: 8, InitialSlots: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(TenantConfig{Name: "a", InitialSlots: 1}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := s.Register(TenantConfig{Name: "nan", Weight: math.NaN()}); err == nil {
		t.Fatal("NaN weight accepted")
	}
	// 8 floored slots held; a newcomer needing 5 can only get 2.
	if _, err := s.Register(TenantConfig{Name: "big", InitialSlots: 5}); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("want ErrNoCapacity, got %v", err)
	}
	if got := grants(s); got["a"] != 8 || len(got) != 1 {
		t.Fatalf("failed registration disturbed grants: %v", got)
	}
	b, err := s.Register(TenantConfig{Name: "b", InitialSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	// b wants more; nothing free until a shrinks.
	if _, err := b.Resize(10); err != nil && !errors.Is(err, ErrNoCapacity) {
		t.Fatal(err)
	}
	before := grants(s)["b"]
	if _, err := a.Resize(0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Resize(10); err != nil {
		t.Fatal(err)
	}
	if got := grants(s)["b"]; got != 10 || got <= before {
		t.Fatalf("shrink did not free slots: b = %d", got)
	}
}

// checkSchedulerInvariants asserts, from one State snapshot, everything an
// arbitration must never break, whatever sequence of operations led here:
//
//  1. no double-lease: total grants never exceed the live capacity;
//  2. the placement is physical: every machine row fits its slot count,
//     no failed machine appears, machine IDs are unique, and the placed
//     slots account for exactly the leased total plus the reserved share;
//  3. no grant exceeds its demand;
//  4. floors hold whenever capacity allows: if the floor sum fits the
//     capacity, every tenant keeps at least min(demand, MinSlots).
func checkSchedulerInvariants(t *testing.T, s *Scheduler, ctx string) {
	t.Helper()
	st := s.State()
	if st.Leased > st.Capacity {
		t.Fatalf("%s: double-leased: %d slots over capacity %d", ctx, st.Leased, st.Capacity)
	}
	placed, seen := 0, map[int]bool{}
	for _, row := range st.Placement {
		if row.Reserved+row.Leased > row.Slots {
			t.Fatalf("%s: machine %d overcommitted: %+v", ctx, row.ID, row)
		}
		if seen[row.ID] {
			t.Fatalf("%s: machine %d placed twice", ctx, row.ID)
		}
		seen[row.ID] = true
		placed += row.Leased
	}
	if placed != st.Leased {
		t.Fatalf("%s: placement holds %d slots, leases total %d", ctx, placed, st.Leased)
	}
	floorSum := 0
	for _, ts := range st.Tenants {
		if ts.Granted > ts.Demand {
			t.Fatalf("%s: tenant %s granted %d over demand %d", ctx, ts.Name, ts.Granted, ts.Demand)
		}
		if ts.Granted < 0 {
			t.Fatalf("%s: tenant %s negative grant %d", ctx, ts.Name, ts.Granted)
		}
		floorSum += minInt(ts.Demand, ts.MinSlots)
	}
	if floorSum <= st.Capacity {
		for _, ts := range st.Tenants {
			if floor := minInt(ts.Demand, ts.MinSlots); ts.Granted < floor {
				t.Fatalf("%s: tenant %s under floor: granted %d < %d with capacity %d free for all floors (%d)",
					ctx, ts.Name, ts.Granted, floor, st.Capacity, floorSum)
			}
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestSchedulerPropertyRandomOps is the property-based invariant net over
// the whole arbitration surface: ~1k randomized operation sequences —
// resize requests, utility reports, machine failures and recoveries,
// straggler flags, priority flips, registrations and releases — with the
// full invariant set re-checked after every single operation. Run under
// -race in CI (the cluster package race job covers it).
func TestSchedulerPropertyRandomOps(t *testing.T) {
	sequences := 1000
	if testing.Short() {
		sequences = 100
	}
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(seq) + 1))
		pool, err := NewPool(PoolConfig{
			SlotsPerMachine: 1 + rng.Intn(4),
			reservedSlots:   rng.Intn(2),
			MaxMachines:     2 + rng.Intn(5),
		}, 1+rng.Intn(2))
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewScheduler(SchedulerConfig{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		var leases []*Tenant
		names := 0
		register := func(initial int) {
			names++
			lease, err := s.Register(TenantConfig{
				Name:         fmt.Sprintf("t%d", names),
				Weight:       float64(1 + rng.Intn(3)),
				Priority:     rng.Intn(3),
				MinSlots:     rng.Intn(5),
				InitialSlots: initial,
			})
			if err == nil {
				leases = append(leases, lease)
			} else if !errors.Is(err, ErrNoCapacity) {
				t.Fatalf("seq %d: register: %v", seq, err)
			}
		}
		// An empty initial grant always fits, so at least one lease exists.
		register(0)
		pick := func() *Tenant { return leases[rng.Intn(len(leases))] }
		// A machine ID drawn near the live range; stale and bogus IDs are
		// deliberately included — lifecycle calls must fail cleanly.
		someMachine := func() int {
			list := pool.MachineList()
			if len(list) == 0 || rng.Intn(8) == 0 {
				return rng.Intn(20)
			}
			return list[rng.Intn(len(list))].ID
		}
		ops := 15 + rng.Intn(15)
		for op := 0; op < ops; op++ {
			ctx := fmt.Sprintf("seq %d op %d", seq, op)
			switch rng.Intn(12) {
			case 0:
				register(rng.Intn(4))
			case 1:
				if _, err := pick().Resize(0); err != nil {
					t.Fatalf("%s: shrink to zero: %v", ctx, err)
				}
			case 2, 3, 4, 5:
				if _, err := pick().Resize(rng.Intn(20)); err != nil && !errors.Is(err, ErrNoCapacity) {
					t.Fatalf("%s: resize: %v", ctx, err)
				}
			case 6, 7:
				shrink := rng.Float64() * 3
				if rng.Intn(6) == 0 {
					shrink = math.Inf(1)
				}
				pick().Report(TenantReport{
					Lambda0:     rng.Float64() * 20,
					Violating:   rng.Intn(2) == 0,
					GrowBenefit: rng.Float64() * 3,
					ShrinkCost:  shrink,
				})
			case 8:
				_ = s.FailMachine(someMachine())
			case 9:
				_ = s.RecoverMachine(someMachine())
			case 10:
				_ = s.MarkStraggler(someMachine(), rng.Intn(2) == 0)
			case 11:
				if err := pick().SetPriority(rng.Intn(3)); err != nil {
					t.Fatalf("%s: set priority: %v", ctx, err)
				}
			}
			checkSchedulerInvariants(t, s, ctx)
		}
	}
}

// TestNoDoubleLeaseUnderConcurrency hammers the scheduler from many
// goroutines — resizes, reports, registrations, shrinks to zero — and checks
// after every operation that the grant total never exceeds capacity and
// that each lease is internally consistent. Run with -race.
func TestNoDoubleLeaseUnderConcurrency(t *testing.T) {
	pool, err := NewPool(PoolConfig{SlotsPerMachine: 4, MaxMachines: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestScheduler(t, pool)
	check := func() {
		st := s.State()
		if st.Leased > st.Capacity {
			t.Errorf("double-leased: %d slots over capacity %d", st.Leased, st.Capacity)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := string(rune('a' + g))
			lease, err := s.Register(TenantConfig{Name: name, Weight: float64(g%3 + 1), Priority: g % 2})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 60; i++ {
				switch i % 4 {
				case 0:
					_, _ = lease.Resize((g + i) % 9)
				case 1:
					lease.Report(TenantReport{Lambda0: 5, Violating: i%8 == 1, GrowBenefit: 1, ShrinkCost: 0.1})
				case 2:
					_, _ = lease.Resize((g * i) % 13)
				case 3:
					_ = lease.Kmax()
				}
				check()
			}
			if _, err := lease.Resize(0); err != nil {
				t.Error(err)
			}
			check()
		}(g)
	}
	wg.Wait()
	st := s.State()
	if st.Leased != 0 {
		t.Fatalf("leaked grants after every tenant shrank to zero: %+v", st)
	}
}
