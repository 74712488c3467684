package scenario

import (
	"math"
	"reflect"
	"testing"

	"github.com/drs-repro/drs/internal/stats"
)

// randomSpec builds a structurally valid random spec: random tenants with
// random envelopes, renewal churn, scripted kills, stragglers, policy
// changes and decommissions. Construction keeps windows disjoint per
// machine so the generator exercises Compile, not Validate.
func randomSpec(r *stats.RNG) Spec {
	s := Spec{
		Name:            "prop",
		Seed:            uint64(r.Uniform(0, 1<<62)),
		DurationSeconds: r.Uniform(100, 2000),
	}
	names := []string{"t0", "t1", "t2", "t3"}[:1+intN(r, 4)]
	for _, n := range names {
		t := TenantSpec{Name: n, Weight: r.Uniform(0.5, 4), Priority: intN(r, 3), BaseRate: r.Uniform(0.1, 20)}
		if r.Bernoulli(0.5) {
			t.Diurnal = &DiurnalSpec{
				PeriodSeconds: r.Uniform(10, s.DurationSeconds),
				Amplitude:     r.Uniform(0, 0.95),
				PhaseSeconds:  r.Uniform(0, 100),
			}
		}
		if r.Bernoulli(0.5) {
			from := r.Uniform(0, s.DurationSeconds*0.8)
			t.Surges = []SurgeSpec{{From: from, Until: from + r.Uniform(1, 200), Factor: r.Uniform(0.2, 10)}}
		}
		if r.Bernoulli(0.3) {
			t.ServiceTailAlpha = r.Uniform(1.1, 4)
		}
		s.Tenants = append(s.Tenants, t)
	}
	if r.Bernoulli(0.6) {
		from := r.Uniform(0, s.DurationSeconds*0.8)
		s.Surges = []MultiSurgeSpec{{
			Tenants: []string{names[0]},
			From:    from, Until: from + r.Uniform(1, 100),
			Factor: r.Uniform(1, 6), JitterSeconds: r.Uniform(0, 20),
		}}
	}
	// Machines 0..3 carry renewal churn; 4..7 scripted kills and
	// stragglers; 8 is decommissioned. Disjoint ID ranges keep windows
	// trivially non-overlapping.
	if r.Bernoulli(0.7) {
		s.Churn.MTBF = r.Uniform(50, 500)
		s.Churn.MTTR = r.Uniform(5, 50)
		s.Churn.Machines = []int{0, 1, 2, 3}[:1+intN(r, 4)]
	}
	if r.Bernoulli(0.7) {
		at := r.Uniform(0, s.DurationSeconds)
		s.Churn.Kills = []KillSpec{{Machine: 4, At: at, Down: r.Uniform(1, 60)}}
	}
	if r.Bernoulli(0.5) {
		from := r.Uniform(0, s.DurationSeconds*0.9)
		s.Stragglers = []StragglerSpec{{Machine: 5, From: from, Until: from + r.Uniform(1, 60)}}
	}
	if r.Bernoulli(0.5) {
		s.Policy = []PolicySpec{{At: r.Uniform(0, s.DurationSeconds), Tenant: names[0], Priority: intN(r, 5)}}
	}
	if r.Bernoulli(0.6) {
		s.Decommissions = []DecommissionSpec{{Machine: 8, At: r.Uniform(0, s.DurationSeconds)}}
		// Half the time, point the renewal trace at the decommissioned
		// machine too — the compiler must filter it, the interesting case.
		if r.Bernoulli(0.5) && s.Churn.MTBF > 0 {
			s.Churn.Machines = append(s.Churn.Machines, 8)
		}
	}
	return s
}

// TestScenarioProperties drives a few hundred random specs through
// Compile and asserts the generator's contract: same spec (same seed)
// compiles to an identical timeline, events are time-sorted with finite
// non-negative times, surge factors are positive, every fail pairs with a
// recovery, and no churn or straggler event ever lands on a machine at or
// after its decommission.
func TestScenarioProperties(t *testing.T) {
	r := stats.NewRNG(0xC0FFEE)
	for trial := 0; trial < 300; trial++ {
		s := randomSpec(r)
		tl, err := Compile(s)
		if err != nil {
			t.Fatalf("trial %d: random spec rejected: %v\nspec: %+v", trial, err, s)
		}
		again, err := Compile(s)
		if err != nil {
			t.Fatalf("trial %d: second compile failed: %v", trial, err)
		}
		if !reflect.DeepEqual(tl.Events(), again.Events()) {
			t.Fatalf("trial %d: same spec compiled to different timelines", trial)
		}
		decommissionAt := map[int]float64{}
		for _, d := range s.Decommissions {
			decommissionAt[d.Machine] = d.At
		}
		evs := tl.Events()
		down := map[int]bool{}
		for i, e := range evs {
			if i > 0 && e.At < evs[i-1].At {
				t.Fatalf("trial %d: events out of order at %d: %v < %v", trial, i, e, evs[i-1])
			}
			if e.At < 0 || math.IsNaN(e.At) || math.IsInf(e.At, 0) {
				t.Fatalf("trial %d: bad event time: %v", trial, e)
			}
			switch e.Kind {
			case KindSurgeStart, KindSurgeEnd:
				if !(e.Factor > 0) {
					t.Fatalf("trial %d: non-positive surge factor: %v", trial, e)
				}
			case KindFail, KindRecover, KindStragglerOn, KindStragglerOff:
				if at, gone := decommissionAt[e.Machine]; gone && e.At >= at {
					t.Fatalf("trial %d: churn on decommissioned machine: %v (decommissioned t=%g)", trial, e, at)
				}
				if e.Kind == KindFail {
					if down[e.Machine] {
						t.Fatalf("trial %d: machine %d failed twice without recovery", trial, e.Machine)
					}
					down[e.Machine] = true
				}
				if e.Kind == KindRecover {
					if !down[e.Machine] {
						t.Fatalf("trial %d: machine %d recovered while up", trial, e.Machine)
					}
					down[e.Machine] = false
				}
			}
		}
		for m, d := range down {
			if d {
				t.Fatalf("trial %d: machine %d left permanently dead (fail without recovery)", trial, m)
			}
		}
		// The envelope stays strictly positive for every tenant at a
		// spread of sample points.
		for _, tn := range s.Tenants {
			env, err := tl.Envelope(tn.Name)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i <= 20; i++ {
				x := s.DurationSeconds * float64(i) / 20
				if v := env(x); !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
					t.Fatalf("trial %d: tenant %s envelope(%g) = %g", trial, tn.Name, x, v)
				}
			}
		}
	}
}

// TestArrivalDeterminism checks the full generative path: two arrival
// processes built from the same compiled spec and driven by same-seeded
// RNGs emit identical gap sequences, and all gaps are non-negative.
func TestArrivalDeterminism(t *testing.T) {
	tl, err := Compile(Chaos())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gold", "bronze"} {
		a1, err := tl.Arrivals(name)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := tl.Arrivals(name)
		if err != nil {
			t.Fatal(err)
		}
		r1, r2 := stats.NewRNG(42), stats.NewRNG(42)
		for i := 0; i < 5000; i++ {
			g1, g2 := a1.NextInterArrival(r1), a2.NextInterArrival(r2)
			if g1 != g2 {
				t.Fatalf("%s: gap %d diverged: %g vs %g", name, i, g1, g2)
			}
			if g1 < 0 || math.IsNaN(g1) || math.IsInf(g1, 0) {
				t.Fatalf("%s: bad gap %g", name, g1)
			}
		}
	}
}

// TestJitterStability pins the independence of surge jitter draws: the
// jitter a tenant receives is keyed by (surge index, tenant index), so
// recompiling yields the same windows, and two tenants in one surge get
// different (but deterministic) starts.
func TestJitterStability(t *testing.T) {
	s := minimal()
	s.Tenants = append(s.Tenants, TenantSpec{Name: "b", BaseRate: 1})
	s.Surges = []MultiSurgeSpec{{Tenants: []string{"a", "b"}, From: 10, Until: 20, Factor: 2, JitterSeconds: 5}}
	starts := func() (float64, float64) {
		tl, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		var a, b float64
		for _, e := range tl.Events() {
			if e.Kind == KindSurgeStart {
				if e.Tenant == "a" {
					a = e.At
				} else {
					b = e.At
				}
			}
		}
		return a, b
	}
	a1, b1 := starts()
	a2, b2 := starts()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("jitter not deterministic: (%g,%g) vs (%g,%g)", a1, b1, a2, b2)
	}
	if a1 == b1 {
		t.Fatalf("both tenants drew identical jitter %g", a1)
	}
	for _, v := range []float64{a1, b1} {
		if v < 10 || v >= 15 {
			t.Fatalf("jittered start %g outside [10, 15)", v)
		}
	}
}

// intN draws a uniform index in [0, n).
func intN(r *stats.RNG, n int) int { return int(r.Uniform(0, float64(n))) }
