package experiments

import (
	"sort"
	"testing"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/obs"
	"github.com/drs-repro/drs/internal/scenario"
)

// TestChaosDecisionLogReconciles replays the canonical chaos arc with the
// decision log attached and audits the log against the run's own books —
// the acceptance gate for the observable control plane:
//
//   - every preemption in the scheduler history has exactly one decision
//     record, same victim, same grant change, same instant, same pause,
//     and that record carries the full Appendix-B verdict inputs (claimant
//     benefit, victim shrink cost, both arrival rates);
//   - every control round left one shed-plan record per tenant, and the
//     per-phase sums of their admitted/shed deltas equal the phase books
//     the golden file locks;
//   - nothing was dropped on the way.
func TestChaosDecisionLogReconciles(t *testing.T) {
	dlog := obs.NewLog(obs.Config{})
	defer dlog.Close()
	res, err := RunChaosSpec(scenario.Chaos(), Options{DecisionLog: dlog})
	if err != nil {
		t.Fatal(err)
	}
	if st := dlog.Stats(); st.Dropped != 0 {
		t.Fatalf("decision log lost records: dropped %d", st.Dropped)
	}
	var preempts, sheds []obs.Record
	dlog.Sweep(func(r *obs.Record) {
		switch r.Kind {
		case obs.KindPreempt:
			preempts = append(preempts, *r)
		case obs.KindShedPlan:
			sheds = append(sheds, *r)
		}
	})

	// Preemption records reconcile 1:1 with the scheduler history, and
	// each carries its verdict inputs.
	var histPre []cluster.SchedulerEvent
	for _, ev := range res.SchedulerHistory {
		if ev.Kind == "preempt" {
			histPre = append(histPre, ev)
		}
	}
	if len(histPre) == 0 {
		t.Fatal("chaos arc preempted nothing; the reconcile test needs a contended scenario")
	}
	if len(preempts) != len(histPre) {
		t.Fatalf("preempt records %d != history preempt events %d", len(preempts), len(histPre))
	}
	used := make([]bool, len(histPre))
	for _, r := range preempts {
		matched := false
		for i, ev := range histPre {
			if !used[i] && ev.Tenant == r.Peer && ev.From == r.From && ev.To == r.To &&
				ev.At.UnixNano() == r.At && ev.Pause.Nanoseconds() == r.PauseNS {
				used[i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("preempt record %+v matches no history event", r)
		}
		if r.Tenant == "" || r.Peer == "" || r.Tenant == r.Peer {
			t.Errorf("preempt record wants distinct claimant and victim, got %q -> %q", r.Tenant, r.Peer)
		}
		if r.From <= r.To {
			t.Errorf("preempt of %s did not shrink the victim: %d -> %d", r.Peer, r.From, r.To)
		}
		if r.PauseNS <= 0 {
			t.Errorf("preempt of %s carries no rebalance pause", r.Peer)
		}
		if r.Lambda0 <= 0 || r.PeerLambda0 <= 0 {
			t.Errorf("preempt of %s lost its Appendix-B arrival rates: claimant %.3f, victim %.3f",
				r.Peer, r.Lambda0, r.PeerLambda0)
		}
	}

	// Shed-plan records: one per tenant per round, and their per-phase
	// admitted/shed delta sums equal the phase books.
	sort.Slice(sheds, func(i, j int) bool { return sheds[i].At < sheds[j].At })
	counts := make([]int, len(res.Phases))
	admitted := make([]int64, len(res.Phases))
	shed := make([]int64, len(res.Phases))
	phase := 0
	for _, r := range sheds {
		at := float64(r.At) / 1e9 // simEpoch is unix zero: At is simulated seconds
		for phase+1 < len(res.Phases) && at > res.Phases[phase].Until+1e-9 {
			phase++
		}
		counts[phase]++
		admitted[phase] += int64(r.Gain)
		shed[phase] += int64(r.Loss)
	}
	nTenants := len(res.Tenants)
	for i, ph := range res.Phases {
		if counts[i] != ph.Rounds*nTenants {
			t.Errorf("phase %q: %d shed-plan records, want rounds %d x tenants %d",
				ph.Label, counts[i], ph.Rounds, nTenants)
		}
		if admitted[i] != ph.Admitted {
			t.Errorf("phase %q: admitted by decision log %d != phase book %d", ph.Label, admitted[i], ph.Admitted)
		}
		if shed[i] != ph.Shed {
			t.Errorf("phase %q: shed by decision log %d != phase book %d", ph.Label, shed[i], ph.Shed)
		}
	}
}
