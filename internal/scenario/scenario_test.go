package scenario

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/drs-repro/drs/internal/stats"
)

// minimal returns the smallest valid spec, for mutation in rejection tests.
func minimal() Spec {
	return Spec{
		Name:            "t",
		DurationSeconds: 100,
		Tenants:         []TenantSpec{{Name: "a", BaseRate: 2}},
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "name is required"},
		{"zero duration", func(s *Spec) { s.DurationSeconds = 0 }, "duration"},
		{"inf duration", func(s *Spec) { s.DurationSeconds = math.Inf(1) }, "duration"},
		{"no tenants", func(s *Spec) { s.Tenants = nil }, "at least one tenant"},
		{"dup tenant", func(s *Spec) {
			s.Tenants = append(s.Tenants, TenantSpec{Name: "a", BaseRate: 1})
		}, "duplicate tenant"},
		{"nan rate", func(s *Spec) { s.Tenants[0].BaseRate = math.NaN() }, "base rate"},
		{"negative rate", func(s *Spec) { s.Tenants[0].BaseRate = -1 }, "base rate"},
		{"negative weight", func(s *Spec) { s.Tenants[0].Weight = -1 }, "weight"},
		{"amplitude one", func(s *Spec) {
			s.Tenants[0].Diurnal = &DiurnalSpec{PeriodSeconds: 60, Amplitude: 1}
		}, "amplitude"},
		{"zero period", func(s *Spec) {
			s.Tenants[0].Diurnal = &DiurnalSpec{PeriodSeconds: 0, Amplitude: 0.5}
		}, "period"},
		{"inverted surge", func(s *Spec) {
			s.Tenants[0].Surges = []SurgeSpec{{From: 10, Until: 10, Factor: 2}}
		}, "empty or inverted"},
		{"zero factor", func(s *Spec) {
			s.Tenants[0].Surges = []SurgeSpec{{From: 0, Until: 10, Factor: 0}}
		}, "factor"},
		{"inf factor", func(s *Spec) {
			s.Tenants[0].Surges = []SurgeSpec{{From: 0, Until: 10, Factor: math.Inf(1)}}
		}, "factor"},
		{"light tail", func(s *Spec) { s.Tenants[0].ServiceTailAlpha = 1 }, "tail alpha"},
		{"surge unknown tenant", func(s *Spec) {
			s.Surges = []MultiSurgeSpec{{Tenants: []string{"zz"}, From: 0, Until: 10, Factor: 2}}
		}, "unknown tenant"},
		{"surge no tenants", func(s *Spec) {
			s.Surges = []MultiSurgeSpec{{From: 0, Until: 10, Factor: 2}}
		}, "names no tenants"},
		{"negative jitter", func(s *Spec) {
			s.Surges = []MultiSurgeSpec{{Tenants: []string{"a"}, From: 0, Until: 10, Factor: 2, JitterSeconds: -1}}
		}, "jitter"},
		{"overlapping kills", func(s *Spec) {
			s.Churn.Kills = []KillSpec{
				{Machine: 1, At: 10, Down: 20},
				{Machine: 1, At: 25, Down: 10},
			}
		}, "kill windows overlap"},
		{"zero outage", func(s *Spec) {
			s.Churn.Kills = []KillSpec{{Machine: 1, At: 10, Down: 0}}
		}, "outage"},
		{"overlapping stragglers", func(s *Spec) {
			s.Stragglers = []StragglerSpec{
				{Machine: 0, From: 10, Until: 30},
				{Machine: 0, From: 20, Until: 40},
			}
		}, "straggler windows overlap"},
		{"policy unknown tenant", func(s *Spec) {
			s.Policy = []PolicySpec{{At: 10, Tenant: "zz", Priority: 1}}
		}, "unknown tenant"},
		{"policy negative priority", func(s *Spec) {
			s.Policy = []PolicySpec{{At: 10, Tenant: "a", Priority: -1}}
		}, "negative priority"},
		{"double decommission", func(s *Spec) {
			s.Decommissions = []DecommissionSpec{{Machine: 1, At: 10}, {Machine: 1, At: 20}}
		}, "decommissioned twice"},
		{"kill past decommission", func(s *Spec) {
			s.Decommissions = []DecommissionSpec{{Machine: 1, At: 50}}
			s.Churn.Kills = []KillSpec{{Machine: 1, At: 40, Down: 20}}
		}, "past its decommission"},
		{"straggler past decommission", func(s *Spec) {
			s.Decommissions = []DecommissionSpec{{Machine: 1, At: 50}}
			s.Stragglers = []StragglerSpec{{Machine: 1, From: 40, Until: 60}}
		}, "decommission"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := minimal()
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted a spec with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := minimal().Validate(); err != nil {
		t.Fatalf("minimal spec rejected: %v", err)
	}
}

func TestCompileEventOrderAndContent(t *testing.T) {
	s := minimal()
	s.Churn.Kills = []KillSpec{{Machine: 2, At: 30, Down: 10}, {Machine: 1, At: 30, Down: 5}}
	s.Stragglers = []StragglerSpec{{Machine: 0, From: 20, Until: 60}}
	s.Policy = []PolicySpec{{At: 30, Tenant: "a", Priority: 4}}
	s.Decommissions = []DecommissionSpec{{Machine: 5, At: 90}}
	tl, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	evs := tl.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("events out of order: %v after %v", evs[i], evs[i-1])
		}
	}
	// Same instant: both fails (machine 1 then 2) sort before the
	// priority change, and machine order breaks the kind tie.
	at30 := []Event{}
	for _, e := range evs {
		if e.At == 30 {
			at30 = append(at30, e)
		}
	}
	if len(at30) != 3 || at30[0].Machine != 1 || at30[1].Machine != 2 || at30[2].Kind != KindPriority {
		t.Fatalf("tie-break order wrong at t=30: %v", at30)
	}
	// Each kill produced its recovery; the straggler window closes.
	kinds := map[Kind]int{}
	for _, e := range evs {
		kinds[e.Kind]++
	}
	if kinds[KindFail] != 2 || kinds[KindRecover] != 2 ||
		kinds[KindStragglerOn] != 1 || kinds[KindStragglerOff] != 1 ||
		kinds[KindDecommission] != 1 || kinds[KindPriority] != 1 {
		t.Fatalf("event census wrong: %v", kinds)
	}
}

// TestScriptOrdersKills: scripted outages sort into a single timeline with
// paired recoveries.
func TestScriptOrdersKills(t *testing.T) {
	s := minimal()
	s.DurationSeconds = 200
	s.Churn.Kills = []KillSpec{{Machine: 2, At: 50, Down: 20}, {Machine: 1, At: 10, Down: 100}}
	tl, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{At: 10, Kind: KindFail, Machine: 1},
		{At: 50, Kind: KindFail, Machine: 2},
		{At: 70, Kind: KindRecover, Machine: 2},
		{At: 110, Kind: KindRecover, Machine: 1},
	}
	if evs := tl.Events(); !slices.Equal(evs, want) {
		t.Fatalf("events %v, want %v", evs, want)
	}
}

func TestEnvelopeComposition(t *testing.T) {
	s := minimal()
	s.Tenants[0].Diurnal = &DiurnalSpec{PeriodSeconds: 40, Amplitude: 0.5}
	s.Tenants[0].Surges = []SurgeSpec{{From: 10, Until: 20, Factor: 4}}
	tl, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	env, err := tl.Envelope("a")
	if err != nil {
		t.Fatal(err)
	}
	// t=10 is a quarter period: sin = 1, diurnal peak 1.5; inside the
	// surge window that composes to 6.
	if got := env(10); math.Abs(got-6) > 1e-9 {
		t.Fatalf("envelope(10) = %g, want 6", got)
	}
	// t=20: surge over, sin(pi) = 0 -> envelope 1.
	if got := env(20); math.Abs(got-1) > 1e-9 {
		t.Fatalf("envelope(20) = %g, want 1", got)
	}
	// The envelope never touches zero anywhere on the horizon.
	for x := 0.0; x < s.DurationSeconds; x += 0.25 {
		if env(x) <= 0 {
			t.Fatalf("envelope(%g) = %g, not strictly positive", x, env(x))
		}
	}
	if _, err := tl.Envelope("nope"); err == nil {
		t.Fatal("Envelope accepted unknown tenant")
	}
}

func TestArrivalsFollowEnvelope(t *testing.T) {
	s := minimal()
	s.Tenants[0].BaseRate = 50
	s.Tenants[0].Surges = []SurgeSpec{{From: 0, Until: 50, Factor: 4}}
	tl, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := tl.Arrivals("a")
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	clock, inSurge, after := 0.0, 0, 0
	for clock < 100 {
		clock += ap.NextInterArrival(rng)
		if clock < 50 {
			inSurge++
		} else if clock < 100 {
			after++
		}
	}
	// 4x the rate in the first half: expect ~10000 vs ~2500.
	ratio := float64(inSurge) / float64(after)
	if ratio < 3 || ratio > 5 {
		t.Fatalf("surge ratio %g (in=%d after=%d), want about 4", ratio, inSurge, after)
	}
}

func TestServiceDist(t *testing.T) {
	s := minimal()
	s.Tenants = append(s.Tenants, TenantSpec{Name: "b", BaseRate: 1, ServiceTailAlpha: 2.5})
	tl, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	d, err := tl.Service("a", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(stats.Exponential); !ok {
		t.Fatalf("default service = %T, want Exponential", d)
	}
	if math.Abs(d.Mean()-0.5) > 1e-12 {
		t.Fatalf("exponential mean %g, want 0.5", d.Mean())
	}
	d, err = tl.Service("b", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(stats.Pareto); !ok {
		t.Fatalf("tailed service = %T, want Pareto", d)
	}
	if math.Abs(d.Mean()-0.5) > 1e-12 {
		t.Fatalf("Pareto mean %g, want pinned to 0.5", d.Mean())
	}
	if _, err := tl.Service("nope", 2); err == nil {
		t.Fatal("Service accepted unknown tenant")
	}
}

func TestScaledPreservesStructure(t *testing.T) {
	s := Chaos()
	half := s.Scaled(0.5)
	if half.DurationSeconds != s.DurationSeconds/2 {
		t.Fatalf("scaled duration %g", half.DurationSeconds)
	}
	if half.Tenants[0].BaseRate != s.Tenants[0].BaseRate {
		t.Fatal("Scaled changed a rate")
	}
	if half.Tenants[0].Diurnal.PeriodSeconds != s.Tenants[0].Diurnal.PeriodSeconds/2 {
		t.Fatal("Scaled missed the diurnal period")
	}
	if half.Tenants[1].Surges[0].Factor != s.Tenants[1].Surges[0].Factor {
		t.Fatal("Scaled changed a surge factor")
	}
	if half.Churn.Kills[0].At != s.Churn.Kills[0].At/2 || half.Churn.Kills[0].Down != s.Churn.Kills[0].Down/2 {
		t.Fatal("Scaled missed the kill window")
	}
	if half.Policy[0].At != s.Policy[0].At/2 {
		t.Fatal("Scaled missed the policy change")
	}
	if half.Decommissions[0].At != s.Decommissions[0].At/2 {
		t.Fatal("Scaled missed the decommission")
	}
	// The original is untouched (deep copy).
	if s.Tenants[0].Diurnal.PeriodSeconds != 720 {
		t.Fatal("Scaled mutated the source spec")
	}
	if _, err := Compile(half); err != nil {
		t.Fatalf("scaled chaos does not compile: %v", err)
	}
}

func TestChaosCompiles(t *testing.T) {
	tl, err := Compile(Chaos())
	if err != nil {
		t.Fatal(err)
	}
	if tl.spec.DurationSeconds != 1440 {
		t.Fatalf("horizon %g", tl.spec.DurationSeconds)
	}
	if n := len(tl.Events()); n == 0 {
		t.Fatal("chaos compiled to an empty timeline")
	}
	// Both tenants must resolve arrivals and service.
	for _, name := range []string{"gold", "bronze"} {
		if _, err := tl.Arrivals(name); err != nil {
			t.Fatal(err)
		}
		if _, err := tl.Service(name, 2); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParseStrictness(t *testing.T) {
	good, err := json.Marshal(Chaos())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Parse(good); err != nil {
		t.Fatalf("round-tripped chaos spec rejected: %v", err)
	}
	if _, _, err := Parse([]byte(`{"name":"x","duration_seconds":10,"tenants":[{"name":"a","base_rate":1}],"typo_field":1}`)); err == nil {
		t.Fatal("Parse accepted an unknown field")
	}
	if _, _, err := Parse([]byte(`{"name":"x","duration_seconds":10,"tenants":[{"name":"a","base_rate":1}]}{}`)); err == nil {
		t.Fatal("Parse accepted trailing data")
	}
	if _, _, err := Parse([]byte(`not json`)); err == nil {
		t.Fatal("Parse accepted garbage")
	}
	if _, _, err := Load("testdata/does-not-exist.json"); err == nil {
		t.Fatal("Load accepted a missing file")
	}
}

// TestParseRejectsRetiredKeys: churn is scripted kills only and the
// diurnal envelope has no phase, so a file still setting a retired key
// fails at the door with an unknown-field error instead of running
// without the behaviour it asked for.
func TestParseRejectsRetiredKeys(t *testing.T) {
	const head = `{"name":"x","duration_seconds":100,"tenants":[{"name":"a","base_rate":1`
	for key, tail := range map[string]string{
		"mtbf_seconds":  `}],"churn":{"kills":[{"machine":1,"at_seconds":5,"down_seconds":5}],"mtbf_seconds":400}}`,
		"mttr_seconds":  `}],"churn":{"mttr_seconds":40}}`,
		"machines":      `}],"churn":{"machines":[0,2]}}`,
		"phase_seconds": `,"diurnal":{"period_seconds":60,"amplitude":0.5,"phase_seconds":10}}]}`,
	} {
		t.Run(key, func(t *testing.T) {
			tl, _, err := Parse([]byte(head + tail))
			if err == nil || tl != nil {
				t.Fatalf("Parse accepted a spec setting %s", key)
			}
			if want := `unknown field "` + key + `"`; !strings.Contains(err.Error(), want) {
				t.Fatalf("Parse error %q does not mention %s", err, want)
			}
		})
	}
}

func TestEventString(t *testing.T) {
	for _, e := range []Event{
		{At: 5, Kind: KindFail, Machine: 2},
		{At: 5, Kind: KindPriority, Tenant: "a", Priority: 3},
		{At: 5, Kind: KindSurgeStart, Tenant: "a", Factor: 2},
		{At: 5, Kind: Kind(99)},
	} {
		if e.String() == "" {
			t.Fatalf("empty String for %#v", e)
		}
	}
	if KindStragglerOn.String() != "straggler-on" {
		t.Fatal("Kind.String mismatch")
	}
}
