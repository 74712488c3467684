package experiments

import (
	"bytes"
	"testing"

	"github.com/drs-repro/drs/internal/scenario"
)

// TestChaosArc runs the canonical everything-at-once scenario and checks
// the whole layered story phase by phase: every timeline event fires, the
// flash-crowd tenant absorbs the shed while the diurnal tenant rides
// through, the machine failure and the priority inversion both leave their
// attribution marks, and no phase of the arc ever double-leases a slot,
// breaks a placement or loses an admitted tuple.
func TestChaosArc(t *testing.T) {
	if testing.Short() {
		t.Skip("24 simulated minutes of two supervised topologies")
	}
	r := chaos(t)

	// Every scheduled event applied, resolved against the live pool.
	tl, err := scenario.Compile(scenario.Chaos())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(r.Applied), len(tl.Events()); got != want {
		t.Fatalf("applied %d of %d timeline events:\n%v", got, want, r.Applied)
	}

	// The run-wide invariants: nothing double-leased, placed or lost.
	if r.MaxLeaseOverCapacity > 0 {
		t.Fatalf("double-leased slots: %d over capacity", r.MaxLeaseOverCapacity)
	}
	if r.PlacementViolations > 0 {
		t.Fatalf("%d placement violations", r.PlacementViolations)
	}
	if r.DroppedTuples != 0 {
		t.Fatalf("%d admitted tuples dropped", r.DroppedTuples)
	}
	if !r.BooksAgree {
		t.Fatalf("shed ledgers disagree: gate %d vs sim %d", r.ShedTotal, r.SimShedTotal)
	}
	// Pending trees at the end are in-flight work, not losses; a leak would
	// strand one tree per lost tuple and grow far past the ~λ·E[T]
	// in-flight population.
	if r.PendingAtEnd > 50 {
		t.Fatalf("%d trees still pending at the end — tuples lost forever", r.PendingAtEnd)
	}

	// And per phase: the audit must be clean in every segment, not just in
	// aggregate, and the segments must tile the whole horizon.
	var phaseOffered, phaseShed, flashShed int64
	for i, ph := range r.Phases {
		if ph.MaxLeaseOverCapacity > 0 || ph.PlacementViolations > 0 || ph.Dropped != 0 {
			t.Fatalf("phase %q [%g, %g) dirty: over=%d viol=%d drop=%d",
				ph.Label, ph.From, ph.Until, ph.MaxLeaseOverCapacity, ph.PlacementViolations, ph.Dropped)
		}
		if i == 0 && ph.From != 0 {
			t.Fatalf("first phase starts at %g, want 0", ph.From)
		}
		if i > 0 && ph.From != r.Phases[i-1].Until {
			t.Fatalf("phase gap: %q starts at %g, previous ends at %g", ph.Label, ph.From, r.Phases[i-1].Until)
		}
		phaseOffered += ph.Offered
		phaseShed += ph.Shed
		// The flash-crowd window [540, 1080) is where overload, churn,
		// stragglers and the priority inversion all stack.
		if ph.From >= 530 && ph.Until <= 1090 {
			flashShed += ph.Shed
		}
	}
	if last := r.Phases[len(r.Phases)-1]; last.Until != r.Scenario.DurationSeconds {
		t.Fatalf("last phase ends at %g, want %g", last.Until, r.Scenario.DurationSeconds)
	}
	var offered int64
	for _, ts := range r.Tenants {
		offered += ts.Clients[0].Offered
	}
	if phaseOffered != offered || phaseShed != r.ShedTotal {
		t.Fatalf("phase books disagree with tenant books: offered %d vs %d, shed %d vs %d",
			phaseOffered, offered, phaseShed, r.ShedTotal)
	}
	if r.ShedTotal > 0 && float64(flashShed)/float64(r.ShedTotal) < 0.7 {
		t.Fatalf("shed not concentrated in the flash crowd: %d of %d", flashShed, r.ShedTotal)
	}

	// The weighted split: bronze (the flash-crowd tenant) absorbs the shed,
	// gold rides through with a far smaller fraction.
	byName := map[string]ClientStats{}
	for _, ts := range r.Tenants {
		byName[ts.Name] = ts.Clients[0]
	}
	gold, bronze := byName["gold"], byName["bronze"]
	if bronze.ShedFraction < 0.3 {
		t.Fatalf("bronze shed only %.1f%% during an 8x flash crowd", bronze.ShedFraction*100)
	}
	if gold.ShedFraction >= bronze.ShedFraction {
		t.Fatalf("gold shed %.1f%% >= bronze %.1f%%", gold.ShedFraction*100, bronze.ShedFraction*100)
	}

	// Attribution marks: the mid-flash machine kill forces a slots-lost
	// re-fit, the priority inversion a preemption shrink.
	var slotsLost, preempted bool
	var lostTotal int
	for _, ts := range r.Tenants {
		lostTotal += ts.SlotsLost
		for _, tr := range ts.Transitions {
			slotsLost = slotsLost || tr.SlotsLost
			preempted = preempted || tr.Preempted
		}
	}
	if !slotsLost || lostTotal == 0 {
		t.Fatalf("machine failure left no slots-lost attribution (transitions %v, lost %d)", slotsLost, lostTotal)
	}
	if !preempted {
		t.Fatal("priority inversion forced no preemption shrink")
	}

	// Floors hold at every sample, through kill, inversion and decommission.
	for _, g := range r.Rounds {
		for i, k := range g.Grants {
			if k < chaosFloor {
				t.Fatalf("tenant %d under floor at t=%.0fs: %+v", i, g.AtSeconds, g)
			}
		}
	}
}

// TestChaosGoldenOutput locks the chaos summary rendering — the scenario
// is seeded and the clock virtual, so the whole arc is reproducible
// byte for byte.
func TestChaosGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("24 simulated minutes of two supervised topologies")
	}
	r := chaos(t)
	var buf bytes.Buffer
	r.Print(&buf)
	golden(t, "chaos.golden", buf.Bytes())
}

// TestChaosScaled pins the scaled-replay contract the quick runs and
// TestRunShortExperiments rely on: a sixth of the horizon still applies
// the full timeline and keeps every invariant.
func TestChaosScaled(t *testing.T) {
	r, err := RunChaos(Options{Duration: 240})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scenario.DurationSeconds != 240 {
		t.Fatalf("scenario not scaled: duration %g", r.Scenario.DurationSeconds)
	}
	if r.MaxLeaseOverCapacity > 0 || r.PlacementViolations > 0 || r.DroppedTuples != 0 {
		t.Fatalf("scaled run dirty: over=%d viol=%d drop=%d",
			r.MaxLeaseOverCapacity, r.PlacementViolations, r.DroppedTuples)
	}
	if !r.BooksAgree {
		t.Fatalf("scaled shed ledgers disagree: gate %d vs sim %d", r.ShedTotal, r.SimShedTotal)
	}
}
