package metrics

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/drs-repro/drs/internal/core"
)

// ErrNotReady is returned by Snapshot before the first complete interval
// has been ingested.
var ErrNotReady = errors.New("metrics: no measurements ingested yet")

// ErrIncomplete is returned by Snapshot when intervals have been ingested
// but some operator still lacks a service-rate estimate (µ̂_i needs at least
// one sampled service time, which an idle operator never produces). Callers
// polling a warming-up system should treat it like ErrNotReady: hold and
// re-measure next round.
var ErrIncomplete = errors.New("metrics: operator lacks service-rate samples")

// OpInterval is the operator-level aggregate of one collection interval:
// the sum of the drained probe counters over the operator's executors
// (Appendix B: metrics must be aggregated to the operator level because
// that is what the Jackson model is defined over).
type OpInterval struct {
	// Arrivals counts tuples that entered any executor queue of the operator.
	Arrivals int64
	// Served counts tuples completed by the operator.
	Served int64
	// Sampled counts service-time samples and BusyTime their summed duration.
	Sampled  int64
	BusyTime time.Duration
}

// IntervalReport carries everything measured during one Tm interval.
type IntervalReport struct {
	// Duration is the wall-clock (or simulated) length of the interval.
	Duration time.Duration
	// ExternalArrivals counts tuples that entered the application from
	// outside (spout emissions) — the numerator of λ̂0. With an ingest
	// front end these are the *admitted* tuples only.
	ExternalArrivals int64
	// OfferedArrivals counts tuples clients *offered* during the interval,
	// including those an admission controller shed before they reached a
	// spout. Zero means "no ingest tier in front": offered equals admitted,
	// the in-process-spout default. It is never meaningfully below
	// ExternalArrivals (admitted tuples were necessarily offered); the
	// measurer clamps it up defensively.
	OfferedArrivals int64
	// Ops holds per-operator aggregates in topology order.
	Ops []OpInterval
	// SojournCount and SojournTotal summarize the total sojourn times of
	// external tuples fully processed during the interval (from tuple-tree
	// completion notifications, the paper's acking mechanism).
	SojournCount int64
	SojournTotal time.Duration
}

// MeasurerConfig parameterizes the measurer.
type MeasurerConfig struct {
	// OperatorNames gives the topology's operators in order; fixes N.
	OperatorNames []string
	// Smoothing applies to every derived series (λ̂0, λ̂_i, µ̂_i, E[T̂]).
	Smoothing SmoothingSpec
}

// Measurer aggregates interval reports into smoothed operator-level rates
// and produces core.Snapshot values for the controller. Safe for
// concurrent use.
type Measurer struct {
	mu  sync.Mutex
	cfg MeasurerConfig

	lambda0 Smoother
	offered Smoother
	lambda  []Smoother
	mus     []Smoother
	sojourn Smoother
	ready   bool

	// snapOps backs the Ops slice of the snapshot Snapshot returns; reusing
	// it keeps the supervisor's steady-state control round allocation-free.
	snapOps []core.OpRates
}

// NewMeasurer validates the config and builds a measurer.
func NewMeasurer(cfg MeasurerConfig) (*Measurer, error) {
	if len(cfg.OperatorNames) == 0 {
		return nil, errors.New("metrics: no operators")
	}
	m := &Measurer{cfg: cfg}
	var err error
	if m.lambda0, err = cfg.Smoothing.New(); err != nil {
		return nil, err
	}
	if m.offered, err = cfg.Smoothing.New(); err != nil {
		return nil, err
	}
	if m.sojourn, err = cfg.Smoothing.New(); err != nil {
		return nil, err
	}
	m.lambda = make([]Smoother, len(cfg.OperatorNames))
	m.mus = make([]Smoother, len(cfg.OperatorNames))
	for i := range cfg.OperatorNames {
		if m.lambda[i], err = cfg.Smoothing.New(); err != nil {
			return nil, err
		}
		if m.mus[i], err = cfg.Smoothing.New(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// AddInterval ingests one interval report, updating all smoothed series.
func (m *Measurer) AddInterval(rep IntervalReport) error {
	if rep.Duration <= 0 {
		return fmt.Errorf("metrics: non-positive interval duration %v", rep.Duration)
	}
	if len(rep.Ops) != len(m.cfg.OperatorNames) {
		return fmt.Errorf("metrics: report has %d operators, want %d", len(rep.Ops), len(m.cfg.OperatorNames))
	}
	secs := rep.Duration.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lambda0.Update(float64(rep.ExternalArrivals) / secs)
	// The offered series smooths independently of λ̂0: a shedding front end
	// can hold the admitted rate flat while demand keeps climbing, and the
	// controller must see that divergence, not a blend.
	offered := rep.OfferedArrivals
	if offered < rep.ExternalArrivals {
		offered = rep.ExternalArrivals // zero (no ingest tier) or a skewed probe
	}
	m.offered.Update(float64(offered) / secs)
	for i, op := range rep.Ops {
		m.lambda[i].Update(float64(op.Arrivals) / secs)
		if op.Sampled > 0 && op.BusyTime > 0 {
			m.mus[i].Update(float64(op.Sampled) / op.BusyTime.Seconds())
		}
	}
	if rep.SojournCount > 0 {
		m.sojourn.Update(rep.SojournTotal.Seconds() / float64(rep.SojournCount))
	}
	m.ready = true
	return nil
}

// Snapshot produces the controller input from the current smoothed series.
// Alloc and Kmax are the caller's to fill in (the measurer does not know
// the scheduler state). It returns ErrNotReady until the first interval
// and an error if any operator still lacks a service-rate estimate.
//
// The returned snapshot's Ops slice is scratch storage reused by the next
// Snapshot call on the same measurer — it is the caller's until then, and
// a caller retaining it longer must copy. The control loop consumes a
// snapshot within its round, so the reuse makes the steady-state round
// allocation-free without anyone copying.
func (m *Measurer) Snapshot() (core.Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.ready {
		return core.Snapshot{}, ErrNotReady
	}
	if cap(m.snapOps) < len(m.cfg.OperatorNames) {
		m.snapOps = make([]core.OpRates, len(m.cfg.OperatorNames))
	}
	s := core.Snapshot{
		Lambda0:         m.lambda0.Value(),
		OfferedLambda0:  m.offered.Value(),
		MeasuredSojourn: m.sojourn.Value(),
		Ops:             m.snapOps[:len(m.cfg.OperatorNames)],
	}
	for i, name := range m.cfg.OperatorNames {
		if !m.mus[i].Ready() {
			return core.Snapshot{}, fmt.Errorf("%w: operator %q has produced none yet", ErrIncomplete, name)
		}
		s.Ops[i] = core.OpRates{
			Name:   name,
			Lambda: m.lambda[i].Value(),
			Mu:     m.mus[i].Value(),
		}
	}
	return s, nil
}

// Reset clears all smoothed state (used after a rebalance, when the old
// rates no longer describe the new configuration).
func (m *Measurer) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lambda0.Reset()
	m.offered.Reset()
	m.sojourn.Reset()
	for i := range m.lambda {
		m.lambda[i].Reset()
		m.mus[i].Reset()
	}
	m.ready = false
}
