// Package metrics implements the DRS measurer module (paper §IV and
// Appendix B): collection of per-operator arrival and service rates and of
// per-tuple total sojourn times, aggregation from the executor (instance)
// level to the operator level, and result smoothing.
//
// Of the paper's design choices one of each is kept, as constants: every
// served tuple is a service-time sample (Nm = 1, ExecutorProbe), and every
// series is smoothed by window averaging over the last smoothingWindow
// intervals. The central measurer pulls and aggregates the probe counters
// every Tm seconds (Measurer.AddInterval).
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
	// Sampled counts service-time samples and BusyTime their summed
	// duration. The engine and the simulator sample every served tuple, so
	// there Sampled equals Served.
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
}

// smoothingWindow is the width, in intervals, of the window average every
// derived series (λ̂0, λ̂_i, µ̂_i, E[T̂]) is smoothed over.
const smoothingWindow = 6

// window is Appendix B's window averaging over the last smoothingWindow
// measurements; the zero value is empty. Not safe for concurrent use.
type window struct {
	buf  [smoothingWindow]float64
	n    int // filled slots
	next int
	sum  float64
}

func (s *window) update(x float64) {
	if s.n < smoothingWindow {
		s.n++
		s.sum += x
	} else {
		s.sum += x - s.buf[s.next]
	}
	s.buf[s.next] = x
	s.next = (s.next + 1) % smoothingWindow
}

// value is the mean of the held measurements (0 before any update).
func (s *window) value() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Measurer aggregates interval reports into smoothed operator-level rates
// and produces core.Snapshot values for the controller. Safe for
// concurrent use.
type Measurer struct {
	mu    sync.Mutex
	names []string

	lambda0 window
	offered window
	lambda  []window
	mus     []window
	sojourn window
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
	n := len(cfg.OperatorNames)
	return &Measurer{names: cfg.OperatorNames, lambda: make([]window, n), mus: make([]window, n)}, nil
}

// AddInterval ingests one interval report, updating all smoothed series.
func (m *Measurer) AddInterval(rep IntervalReport) error {
	if rep.Duration <= 0 {
		return fmt.Errorf("metrics: non-positive interval duration %v", rep.Duration)
	}
	if len(rep.Ops) != len(m.names) {
		return fmt.Errorf("metrics: report has %d operators, want %d", len(rep.Ops), len(m.names))
	}
	secs := rep.Duration.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lambda0.update(float64(rep.ExternalArrivals) / secs)
	// The offered series smooths independently of λ̂0: a shedding front end
	// can hold the admitted rate flat while demand keeps climbing, and the
	// controller must see that divergence, not a blend.
	offered := rep.OfferedArrivals
	if offered < rep.ExternalArrivals {
		offered = rep.ExternalArrivals // zero (no ingest tier) or a skewed probe
	}
	m.offered.update(float64(offered) / secs)
	for i, op := range rep.Ops {
		m.lambda[i].update(float64(op.Arrivals) / secs)
		if op.Sampled > 0 && op.BusyTime > 0 {
			m.mus[i].update(float64(op.Sampled) / op.BusyTime.Seconds())
		}
	}
	if rep.SojournCount > 0 {
		m.sojourn.update(rep.SojournTotal.Seconds() / float64(rep.SojournCount))
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
	if cap(m.snapOps) < len(m.names) {
		m.snapOps = make([]core.OpRates, len(m.names))
	}
	s := core.Snapshot{
		Lambda0:         m.lambda0.value(),
		OfferedLambda0:  m.offered.value(),
		MeasuredSojourn: m.sojourn.value(),
		Ops:             m.snapOps[:len(m.names)],
	}
	for i, name := range m.names {
		if m.mus[i].n == 0 {
			return core.Snapshot{}, fmt.Errorf("%w: operator %q has produced none yet", ErrIncomplete, name)
		}
		s.Ops[i] = core.OpRates{
			Name:   name,
			Lambda: m.lambda[i].value(),
			Mu:     m.mus[i].value(),
		}
	}
	return s, nil
}

// Reset clears all smoothed state (used after a rebalance, when the old
// rates no longer describe the new configuration).
func (m *Measurer) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lambda0, m.offered, m.sojourn = window{}, window{}, window{}
	clear(m.lambda)
	clear(m.mus)
	m.ready = false
}
