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
	// measurement interval (aggregate + window + snapshot), which is
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

// Table2Scheduling returns one iteration of Table II's Scheduling row at
// kmax: Algorithm 1 on the VLD rates, the offered load scaled with Kmax so
// larger budgets exercise real allocation work rather than returning early
// at zero benefit. RunTable2 and the root benchmarks time the same body.
func Table2Scheduling(kmax int) (func() error, error) {
	model, err := vld.Model()
	if err != nil {
		return nil, err
	}
	var scaled core.Model
	if err := scaled.Scale(model, float64(kmax)/22.0); err != nil {
		return nil, err
	}
	return func() error {
		_, err := scaled.AssignProcessors(kmax)
		return err
	}, nil
}

// Table2Measurement returns one iteration of Table II's Measurement row:
// one measurement interval of the VLD operators processed (aggregate,
// window, snapshot) by a fresh measurer.
func Table2Measurement() (func() error, error) {
	meas, err := metrics.NewMeasurer(metrics.MeasurerConfig{
		OperatorNames: vld.OperatorNames(),
	})
	if err != nil {
		return nil, err
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
	return func() error {
		if err := meas.AddInterval(rep); err != nil {
			return err
		}
		_, err := meas.Snapshot()
		return err
	}, nil
}

// RunTable2 measures the real implementation: Table2Scheduling (all λ, µ
// fixed, Kmax varied) and Table2Measurement, each iterations times per
// Kmax. The paper runs each point 100,000 times; iterations tunes that
// down for quick runs.
func RunTable2(iterations int) (Table2Result, error) {
	if iterations <= 0 {
		iterations = 10000
	}
	res := Table2Result{Iterations: iterations}
	meanMillis := func(body func() error, err error) (float64, error) {
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < iterations; i++ {
			if err := body(); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds() * 1e3 / float64(iterations), nil
	}
	for _, kmax := range Table2Kmaxes() {
		sched, err := meanMillis(Table2Scheduling(kmax))
		if err != nil {
			return Table2Result{}, err
		}
		meas, err := meanMillis(Table2Measurement())
		if err != nil {
			return Table2Result{}, err
		}
		res.Rows = append(res.Rows, Table2Row{Kmax: kmax, SchedulingMillis: sched, MeasurementMillis: meas})
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
