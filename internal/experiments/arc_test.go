package experiments

import (
	"errors"
	"testing"

	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/sim"
)

// failingStepper fails every decision with err.
type failingStepper struct{ err error }

func (s failingStepper) Step(core.Snapshot) (core.Decision, error) { return core.Decision{}, s.err }

// TestArcFailsLoudly holds runArc to its contract with the supervisor: a
// live daemon holds on a failed step, but an arc returns the first one as
// its error, naming the run and wrapping the cause, rather than printing a
// figure the controller never decided.
func TestArcFailsLoudly(t *testing.T) {
	cause := errors.New("scripted step failure")
	ts := chain{tmax: 1.5}.exp("solo", 1, 2, 4, 2, sim.PoissonArrivals{Rate: 1})
	ts.stepper = failingStepper{cause}
	_, err := runArc(arcSpec{name: "failing", pool: chainPool(4, 2), tenants: []arcTenantSpec{ts}},
		timeline{horizon: 120}, Options{})
	want := "experiments: failing run: controller step failed: " + cause.Error()
	if err == nil || err.Error() != want || !errors.Is(err, cause) {
		t.Fatalf("runArc error %v, want %q wrapping the cause", err, want)
	}
}
