package sim

import (
	"math"
	"testing"

	"github.com/drs-repro/drs/internal/metrics"
	"github.com/drs-repro/drs/internal/queueing"
	"github.com/drs-repro/drs/internal/stats"
)

// runMGk simulates a single station with the given service distribution.
func runMGk(t *testing.T, lambda float64, svc stats.Dist, k int, until float64, seed uint64) *Sim {
	t.Helper()
	s, err := New(Config{
		Operators: []OperatorSpec{{Name: "op", Service: svc}},
		Sources:   []SourceSpec{{Op: 0, Arrivals: PoissonArrivals{Rate: lambda}}},
		Alloc:     []int{k},
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetWarmup(until / 20)
	s.RunUntil(until)
	return s
}

func TestMGkCorrectionDeterministicService(t *testing.T) {
	// M/D/k: cv2 = 0. The corrected model must beat the plain M/M/k
	// estimate, which overstates the wait ~2x.
	lambda, k := 8.0, 2
	svc := stats.Deterministic{Value: 0.2} // mu = 5, rho = 0.8
	s := runMGk(t, lambda, svc, k, 8000, 21)
	measured := s.CompletedStats().Mean()
	plain := queueing.ExpectedSojourn(lambda, 5, k)
	corrected := queueing.ExpectedSojournCorrected(lambda, 5, k, 0)
	if math.Abs(corrected-measured) >= math.Abs(plain-measured) {
		t.Errorf("corrected %0.4f not closer to measured %0.4f than plain %0.4f",
			corrected, measured, plain)
	}
	if math.Abs(corrected-measured) > 0.12*measured {
		t.Errorf("corrected estimate %0.4f off measured %0.4f by > 12%%", corrected, measured)
	}
}

func TestMGkCorrectionHeavyTailService(t *testing.T) {
	// Lognormal sigma = 1.2: cv2 = e^{1.44} - 1 ≈ 3.22. The plain model
	// underestimates the wait badly; Allen-Cunneen lands close.
	const sigma = 1.2
	meanSvc := 0.1
	cv2 := math.Exp(sigma*sigma) - 1
	svc := stats.LogNormal{Mu: math.Log(meanSvc) - sigma*sigma/2, Sigma: sigma}
	lambda, k := 16.0, 2 // rho = 0.8
	s := runMGk(t, lambda, svc, k, 20000, 22)
	measured := s.CompletedStats().Mean()
	mu := 1 / meanSvc
	plainWait := queueing.ExpectedWait(lambda, mu, k)
	correctedWait := queueing.ExpectedWaitCorrected(lambda, mu, k, cv2)
	measuredWait := measured - meanSvc
	if plainWait > 0.55*measuredWait {
		t.Errorf("plain wait %0.4f should underestimate measured %0.4f by ~(1+cv2)/2", plainWait, measuredWait)
	}
	if math.Abs(correctedWait-measuredWait) > 0.25*measuredWait {
		t.Errorf("corrected wait %0.4f off measured %0.4f by > 25%%", correctedWait, measuredWait)
	}
}

func TestMeasurerRecoversServiceCV(t *testing.T) {
	// End to end: the measurer's CV² estimate from simulator intervals
	// must recover the service distribution's true cv2.
	cases := []struct {
		name string
		svc  stats.Dist
		want float64
	}{
		{"deterministic", stats.Deterministic{Value: 0.05}, 0},
		{"exponential", stats.Exponential{Rate: 20}, 1},
		{"lognormal", stats.LogNormal{Mu: math.Log(0.05) - 0.32, Sigma: 0.8}, math.Exp(0.64) - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{
				Operators: []OperatorSpec{{Name: "op", Service: tc.svc}},
				Sources:   []SourceSpec{{Op: 0, Arrivals: PoissonArrivals{Rate: 10}}},
				Alloc:     []int{3},
				Seed:      23,
			})
			if err != nil {
				t.Fatal(err)
			}
			meas, err := metrics.NewMeasurer(metrics.MeasurerConfig{
				OperatorNames:     []string{"op"},
				EstimateServiceCV: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 5; i++ {
				s.RunUntil(float64(i) * 200)
				if err := meas.AddInterval(s.DrainInterval()); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := meas.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got := snap.Ops[0].ServiceCV2
			if math.Abs(got-tc.want) > 0.12*(1+tc.want) {
				t.Errorf("estimated cv2 = %0.3f, want ~%0.3f", got, tc.want)
			}
		})
	}
}

func TestServiceCVOffByDefault(t *testing.T) {
	s := single(t, 10, 20, 2, 24)
	meas, err := metrics.NewMeasurer(metrics.MeasurerConfig{OperatorNames: []string{"op"}})
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(100)
	if err := meas.AddInterval(s.DrainInterval()); err != nil {
		t.Fatal(err)
	}
	snap, err := meas.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Ops[0].ServiceCV2 != 0 {
		t.Errorf("ServiceCV2 = %g without opting in, want 0 (paper-faithful)", snap.Ops[0].ServiceCV2)
	}
}
