package experiments

import "testing"

// TestContentionArc runs the full two-tenant experiment and checks the
// whole multi-tenant story: the scheduler preempts slots to the
// Tmax-violating high-priority tenant, holds the transfer through the
// surge, hands the slots back after convergence, and never double-leases
// a slot.
func TestContentionArc(t *testing.T) {
	if testing.Short() {
		t.Skip("27 simulated minutes of two supervised topologies")
	}
	r := contention(t)
	if r.MaxLeaseOverCapacity > 0 {
		t.Fatalf("double-leased slots: %d over capacity", r.MaxLeaseOverCapacity)
	}
	if r.PreemptedSlots < 1 {
		t.Fatal("no slots were preempted from the steady tenant")
	}
	if r.BurstyPeakGrant <= burstyInitial {
		t.Fatalf("bursty tenant never grew past its initial %d slots (peak %d)",
			burstyInitial, r.BurstyPeakGrant)
	}
	if !r.SteadyRestored {
		t.Fatal("steady tenant's slots were not returned after the surge")
	}
	var preempts, steadyShrinks int
	for _, ev := range r.SchedulerHistory {
		if ev.Kind == "preempt" && ev.Tenant == "steady" {
			preempts++
		}
	}
	for _, tr := range r.Tenants[0].Transitions {
		if tr.Preempted {
			steadyShrinks++
			if simSeconds(tr.At) < r.StepFrom {
				t.Fatalf("steady preempted before the surge began: %+v", tr)
			}
		}
	}
	if preempts == 0 {
		t.Fatal("scheduler history records no preemption")
	}
	if steadyShrinks == 0 {
		t.Fatal("steady supervisor never vacated preempted slots")
	}
	// The preemption floor must have held for the victim. (A tenant may
	// still scale *itself* below MinSlots — the floor only guards against
	// involuntary shrinks, and steady never volunteers below 8 here.)
	for _, g := range r.Rounds {
		if g.Grants[0] < contentionFloor {
			t.Fatalf("steady preempted below its floor at t=%.0fs: %+v", g.AtSeconds, g)
		}
	}
}
