package experiments

import (
	"bytes"
	"testing"
)

// TestOverloadArc runs the closed-loop admission experiment and checks the
// whole front-door story: the surge forces shedding with the supervisor
// still seeing offered demand, the grant scales to the provider cap (a
// partial grant of a beyond-cap request), the Appendix-B guard flags the
// shed as persistent at the cap, shedding lands on the low-weight client,
// and after the surge the gate returns to admit-all with the sojourn back
// under Tmax and no admitted tuple lost.
func TestOverloadArc(t *testing.T) {
	if testing.Short() {
		t.Skip("27 simulated minutes of a supervised topology behind the admission gate")
	}
	r := overload(t)
	if !r.ShedDuringSurge {
		t.Fatal("the gate never shed during the surge window")
	}
	if !r.PersistentShedSeen {
		t.Fatal("no plan flagged the shed persistent at the provider cap")
	}
	if !r.AdmitAllRestored {
		t.Fatal("the gate never returned to admit-all after the surge")
	}
	if want := overloadSlots * overloadMachines; r.PeakGrant != want {
		t.Fatalf("peak grant %d, want the %d-slot provider cap", r.PeakGrant, want)
	}
	if !r.FinalUnderTmax {
		t.Fatalf("final E[T] %.0f ms did not re-converge under Tmax %.0f ms",
			r.FinalSojournMillis, r.Tmax*1e3)
	}
	if r.DroppedTuples != 0 {
		t.Fatalf("%d admitted tuples dropped", r.DroppedTuples)
	}
	// Pending trees at the end are in-flight work (≈ λ·E[T] ≈ 3·1.1 ≈ 4);
	// a leak would strand one tree per lost tuple and grow far past it.
	if r.PendingAtEnd > 50 {
		t.Fatalf("%d trees still pending at the end — admitted tuples lost", r.PendingAtEnd)
	}
	front := r.Tenants[0]
	var gold, bronze ClientStats
	for _, c := range front.Clients {
		switch c.Name {
		case "gold":
			gold = c
		case "bronze":
			bronze = c
		}
	}
	if gold.ShedFraction > 0.10 {
		t.Fatalf("gold shed %.1f%% — the high-weight client should ride through nearly untouched",
			gold.ShedFraction*100)
	}
	if bronze.ShedFraction < 0.20 {
		t.Fatalf("bronze shed only %.1f%% — the surge's excess should land on the low-weight client",
			bronze.ShedFraction*100)
	}
	if gold.ShedFraction*5 > bronze.ShedFraction {
		t.Fatalf("shedding not weight-ordered: gold %.1f%% vs bronze %.1f%%",
			gold.ShedFraction*100, bronze.ShedFraction*100)
	}
	// The simulator's own refusal count must agree with the clients' books.
	if sum := gold.Shed + bronze.Shed; sum != front.SimShed {
		t.Fatalf("shed accounting disagrees: clients %d, simulator %d", sum, front.SimShed)
	}
	// Offered demand kept flowing into the measurer while shedding: some
	// mid-surge round must have seen offered well above admitted.
	sawSplit := false
	for _, pt := range r.Rounds {
		if g := pt.Gates[0]; pt.AtSeconds >= r.StepFrom && pt.AtSeconds < r.StepUntil &&
			g.OfferedRate > g.AdmittedRate*1.2 {
			sawSplit = true
			break
		}
	}
	if !sawSplit {
		t.Fatal("no round measured offered load above the admitted rate during the surge")
	}
}

// TestOverloadGoldenOutput locks the overload summary rendering, like the
// contention and churn goldens (regenerate with -update).
func TestOverloadGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("27 simulated minutes of a supervised topology behind the admission gate")
	}
	r := overload(t)
	var buf bytes.Buffer
	r.Print(&buf)
	golden(t, "overload.golden", buf.Bytes())
}
