package experiments

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden files: go test ./internal/experiments -run Golden -update
var update = flag.Bool("update", false, "rewrite the experiment golden files")

// golden compares rendered experiment output against a checked-in file,
// regenerating it under -update. The renders are deterministic: seeded
// simulations on a virtual clock.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiments -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden file.\n--- got ---\n%s\n--- want ---\n%s\nRegenerate deliberately with -update.",
			name, got, want)
	}
}

// results holds one default-options result per (row, app): the claim
// tests and the golden tests read the same run instead of re-simulating it
// (the six FPD allocations alone are 3 s a pass).
var results = map[string]any{}

// cached returns the result stored under key, running it on first use.
func cached[R any](t *testing.T, key string, run func() (R, error)) R {
	t.Helper()
	if r, ok := results[key]; ok {
		return r.(R)
	}
	r, err := run()
	if err != nil {
		t.Fatal(err)
	}
	results[key] = r
	return r
}

// sweepOf is the allocation sweep Figures 6 and 7 both read.
type sweepOf struct {
	points      []Point
	recommended []int
}

func allocations(t *testing.T, app App) sweepOf {
	return cached(t, "allocations/"+string(app), func() (sweepOf, error) {
		points, p, err := allocationSweep(app, Options{})
		return sweepOf{points, p.recommended}, err
	})
}

func fig6(t *testing.T, app App) Fig6Result {
	s := allocations(t, app)
	return figure6(app, s.points, s.recommended)
}

func fig7(t *testing.T, app App) Fig7Result {
	r, err := figure7(app, allocations(t, app).points)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func fig8(t *testing.T) Fig8Result {
	return cached(t, "fig8", func() (Fig8Result, error) { return RunFigure8(Options{}) })
}

func fig9(t *testing.T, app App) Fig9Result {
	return cached(t, "fig9/"+string(app), func() (Fig9Result, error) { return RunFigure9(app, Options{}) })
}

func fig10(t *testing.T, exp Fig10Experiment) Fig10Result {
	return cached(t, "fig10/"+string(exp), func() (Fig10Result, error) { return RunFigure10(exp, Options{}) })
}

func baseline(t *testing.T, app App) BaselineResult {
	return cached(t, "baseline/"+string(app), func() (BaselineResult, error) { return RunBaseline(app, Options{}) })
}

func shedding(t *testing.T) SheddingResult {
	return cached(t, "shedding", func() (SheddingResult, error) { return RunShedding(Options{}) })
}

func contention(t *testing.T) ContentionResult {
	return cached(t, "contention", func() (ContentionResult, error) { return RunContention(Options{}) })
}

func churn(t *testing.T) ChurnResult {
	return cached(t, "churn", func() (ChurnResult, error) { return RunChurn(Options{}) })
}

func overload(t *testing.T) OverloadResult {
	return cached(t, "overload", func() (OverloadResult, error) { return RunOverload(Options{}) })
}

func chaos(t *testing.T) ChaosResult {
	return cached(t, "chaos", func() (ChaosResult, error) { return RunChaos(Options{}) })
}

func restart(t *testing.T) RestartResult {
	return cached(t, "restart", func() (RestartResult, error) { return RunRestart(Options{}) })
}

type printer interface{ Print(io.Writer) }

// perApp is a per-application row as `drs-experiments` prints it: VLD,
// then FPD.
func perApp[R printer](t *testing.T, f func(*testing.T, App) R) []printer {
	return []printer{f(t, VLD), f(t, FPD)}
}

// TestFigureGoldens locks the stdout of every simulation row of
// `drs-experiments` that has no arc test of its own, at default options —
// byte for byte what `drs-experiments <row>` prints. The files were
// generated at the commit before the figures became values over three
// runners and have not been regenerated since.
func TestFigureGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("the full evaluation")
	}
	for _, row := range []struct {
		name    string
		results []printer
	}{
		{"fig6", perApp(t, fig6)},
		{"fig7", perApp(t, fig7)},
		{"fig8", []printer{fig8(t)}},
		{"fig9", perApp(t, fig9)},
		{"fig10", []printer{fig10(t, ExpA), fig10(t, ExpB)}},
		{"baseline", perApp(t, baseline)},
		{"shedding", []printer{shedding(t)}},
	} {
		var buf bytes.Buffer
		for _, r := range row.results {
			r.Print(&buf)
		}
		golden(t, row.name+".golden", buf.Bytes())
	}
}
