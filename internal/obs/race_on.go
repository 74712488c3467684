//go:build race

package obs

// RaceEnabled reports whether the race detector is compiled in. The
// allocation-guard tests skip under it: the detector's shadow bookkeeping
// allocates, making testing.AllocsPerRun meaningless.
//
//checkdoc:testonly test hook: every package's allocation guards skip under -race
const RaceEnabled = true
