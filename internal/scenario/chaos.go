package scenario

import _ "embed"

// chaosJSON is the canonical spec, the same file `ingestload -trace` and
// `drs-experiments -scenario` load.
//
//go:embed chaos.json
var chaosJSON []byte

// Chaos returns the canonical everything-at-once scenario the `chaos`
// experiment golden-locks and `ingestload -trace` replays live: two
// tenants over a 24-minute arc — "gold" riding a compressed diurnal day
// with a heavy Pareto service tail, "bronze" flat until an 8× flash crowd
// — plus a correlated two-tenant surge, a scripted mid-flash machine
// kill, a straggler window, a priority inversion and its repair, and a
// decommission in the cooldown. Scaled copies (Spec.Scaled) drive the
// short test runs. It parses internal/scenario/chaos.json, embedded, and
// panics if that file does not parse, like regexp.MustCompile: the file
// is checked in, and every chaos test parses it.
func Chaos() Spec {
	_, spec, err := Parse(chaosJSON)
	if err != nil {
		panic("scenario: embedded chaos.json: " + err.Error())
	}
	return spec
}
