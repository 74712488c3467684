package experiments

import (
	"bytes"
	"slices"
	"testing"
)

// TestChurnArc runs the full machine-failure experiment and checks the
// whole failure-domain story: the kill lands mid-surge, a replacement
// machine is negotiated within the provider cap, grants shrink with
// slots-lost/preemption attribution and both supervisors vacate, the
// tenants re-converge under Tmax while the surge still runs, and the run
// never double-leases a slot, breaks a placement or loses a tuple.
func TestChurnArc(t *testing.T) {
	if testing.Short() {
		t.Skip("27 simulated minutes of two supervised topologies")
	}
	r := churn(t)
	if len(r.Killed) != churnKillCount {
		t.Fatalf("killed %v, want %d machines down", r.Killed, churnKillCount)
	}
	if r.MaxLeaseOverCapacity > 0 {
		t.Fatalf("double-leased slots: %d over capacity", r.MaxLeaseOverCapacity)
	}
	if r.PlacementViolations > 0 {
		t.Fatalf("%d placement violations", r.PlacementViolations)
	}
	if r.DroppedTuples != 0 {
		t.Fatalf("%d tuples dropped", r.DroppedTuples)
	}
	// Pending trees at the end are in-flight work, not losses; a leak
	// would strand one tree per lost tuple and grow far past the ~λ·E[T]
	// in-flight population (≈ 2·3·1.2 ≈ 7).
	if r.PendingAtEnd > 50 {
		t.Fatalf("%d trees still pending at the end — tuples lost forever", r.PendingAtEnd)
	}
	if !r.ReplacementNegotiated {
		t.Fatal("no replacement machine was negotiated during the outage")
	}
	if r.FailoverShrinks == 0 {
		t.Fatal("no supervisor recorded a SlotsLost re-fit")
	}
	if r.PreemptShrinks == 0 {
		t.Fatal("no supervisor recorded a preemption shrink during the outage")
	}
	if r.Tenants[0].SlotsLost+r.Tenants[1].SlotsLost == 0 {
		t.Fatal("the scheduler attributed no slots to the machine failures")
	}
	if r.ConvergedAtSeconds <= 0 {
		t.Fatal("tenants never re-converged under Tmax inside the surge window")
	}
	if r.ConvergedAtSeconds >= r.StepUntil {
		t.Fatalf("re-convergence at t=%.0fs is outside the surge window", r.ConvergedAtSeconds)
	}
	// During the outage the floors must hold against capacity: neither
	// grant may drop below the preemption floor.
	for _, g := range r.Rounds {
		if g.AtSeconds >= r.KillAt && g.AtSeconds < r.RecoverAt {
			if g.Grants[0] < churnFloor || g.Grants[1] < churnFloor {
				t.Fatalf("grant under floor during the outage at t=%.0fs: %+v", g.AtSeconds, g)
			}
		}
	}
	// Failover shrinks must land at (or right after) the kill, not before.
	for _, tr := range slices.Concat(r.Tenants[0].Transitions, r.Tenants[1].Transitions) {
		if tr.SlotsLost && simSeconds(tr.At) < r.KillAt {
			t.Fatalf("failover shrink before the kill: %+v", tr)
		}
	}
}

// TestContentionGoldenOutput locks the contention summary rendering — an
// experiment regression (grants, curves, history) shows up as a textual
// diff.
func TestContentionGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("27 simulated minutes of two supervised topologies")
	}
	r := contention(t)
	var buf bytes.Buffer
	r.Print(&buf)
	golden(t, "contention.golden", buf.Bytes())
}

// TestChurnGoldenOutput locks the churn summary rendering the same way.
func TestChurnGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("27 simulated minutes of two supervised topologies")
	}
	r := churn(t)
	var buf bytes.Buffer
	r.Print(&buf)
	golden(t, "churn.golden", buf.Bytes())
}
