package scenario

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzParseScenario throws arbitrary bytes at the scenario loader and
// checks the contract every driver relies on: no panic; a non-nil
// timeline exactly when err == nil; and a successfully compiled scenario
// whose event schedule is time-sorted with finite non-negative times,
// whose envelopes are strictly positive, and whose tenants all resolve
// arrival processes and service distributions. Inf/NaN rates, overlapping
// kill windows and unknown fields must all land in the err != nil branch.
// Seed corpus: testdata/fuzz/FuzzParseScenario.
func FuzzParseScenario(f *testing.F) {
	if chaos, err := json.Marshal(Chaos()); err == nil {
		f.Add(chaos)
	}
	f.Add([]byte(`{"name":"min","duration_seconds":60,"tenants":[{"name":"a","base_rate":2}]}`))
	f.Add([]byte(`{"name":"full","seed":7,"duration_seconds":600,
		"tenants":[{"name":"a","weight":2,"base_rate":5,
			"diurnal":{"period_seconds":300,"amplitude":0.5},
			"flash_crowds":[{"from_seconds":100,"until_seconds":200,"factor":4}],
			"service_tail_alpha":2.5},
			{"name":"b","base_rate":1}],
		"surges":[{"tenants":["a","b"],"from_seconds":50,"until_seconds":90,"factor":2,"jitter_seconds":5}],
		"churn":{"kills":[{"machine":1,"at_seconds":150,"down_seconds":30}]},
		"stragglers":[{"machine":3,"from_seconds":200,"until_seconds":260}],
		"policy":[{"at_seconds":300,"tenant":"b","priority":4}],
		"decommissions":[{"machine":5,"at_seconds":500}]}`))
	f.Add([]byte(`{"name":"inf","duration_seconds":60,"tenants":[{"name":"a","base_rate":1e999}]}`))
	f.Add([]byte(`{"name":"overlap","duration_seconds":60,"tenants":[{"name":"a","base_rate":1}],
		"churn":{"kills":[{"machine":0,"at_seconds":1,"down_seconds":10},
			{"machine":0,"at_seconds":5,"down_seconds":10}]}}`))
	f.Add([]byte(`{"name":"typo","duration_seconds":60,"tenants":[{"name":"a","base_rate":1}],"surprise":1}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		tl, spec, err := Parse(raw)
		if err != nil {
			if tl != nil {
				t.Fatalf("error %v with non-nil timeline", err)
			}
			return
		}
		if tl == nil {
			t.Fatal("nil timeline without error")
		}
		evs := tl.Events()
		for i, e := range evs {
			if e.At < 0 || math.IsNaN(e.At) || math.IsInf(e.At, 0) {
				t.Fatalf("event %d has bad time: %v", i, e)
			}
			if i > 0 && e.At < evs[i-1].At {
				t.Fatalf("events out of order at %d: %v < %v", i, e, evs[i-1])
			}
		}
		for _, tn := range spec.Tenants {
			env, err := tl.Envelope(tn.Name)
			if err != nil {
				t.Fatalf("compiled scenario lost tenant %q: %v", tn.Name, err)
			}
			for i := 0; i <= 8; i++ {
				x := spec.DurationSeconds * float64(i) / 8
				if v := env(x); !(v > 0) || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("tenant %q envelope(%g) = %g", tn.Name, x, v)
				}
			}
			if _, err := tl.Arrivals(tn.Name); err != nil {
				t.Fatalf("tenant %q arrivals: %v", tn.Name, err)
			}
			d, err := tl.Service(tn.Name, 2)
			if err != nil {
				t.Fatalf("tenant %q service: %v", tn.Name, err)
			}
			if m := d.Mean(); !(m > 0) || math.IsNaN(m) || math.IsInf(m, 0) {
				t.Fatalf("tenant %q service mean %g", tn.Name, m)
			}
		}
	})
}
