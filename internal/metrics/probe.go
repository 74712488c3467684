package metrics

import (
	"sync/atomic"
	"time"
)

// ExecutorProbe instruments one executor (one processor instance of an
// operator) with the paper's first sampling layer: arrivals are counted at
// the tail of the input queue (Appendix C notes the position matters), and
// the service duration of every Nm-th tuple is recorded. All methods are
// safe for concurrent use; the executor folds a whole batch in a constant
// number of atomic adds.
type ExecutorProbe struct {
	nm int64

	arrivals    atomic.Int64
	served      atomic.Int64
	servedTotal atomic.Int64
	sampled     atomic.Int64
	busyNanos   atomic.Int64
}

// NewExecutorProbe builds a probe sampling every nm-th served tuple
// (nm >= 1; 1 samples everything).
func NewExecutorProbe(nm int) *ExecutorProbe {
	if nm < 1 {
		nm = 1
	}
	return &ExecutorProbe{nm: int64(nm)}
}

// TuplesArrived counts n tuples entering this executor's input queue in
// one batch — one atomic add for a whole batched enqueue.
func (p *ExecutorProbe) TuplesArrived(n int64) {
	p.arrivals.Add(n)
}

// SampleStride reports Nm: callers accumulate observations locally and
// apply the sampling stride themselves (see TuplesServed).
func (p *ExecutorProbe) SampleStride() int64 { return p.nm }

// TuplesServed folds a locally accumulated batch of observations in a
// constant number of atomic adds: served tuples, how many of them were
// Nm-stride samples, and the samples' total duration. The caller owns the
// stride bookkeeping across batches.
func (p *ExecutorProbe) TuplesServed(served, sampled, busyNanos int64) {
	p.servedTotal.Add(served)
	p.served.Add(served)
	if sampled > 0 {
		p.sampled.Add(sampled)
		p.busyNanos.Add(busyNanos)
	}
}

// ProbeCounters is one drained reading of a probe.
type ProbeCounters struct {
	// Arrivals and Served count tuples since the last drain.
	Arrivals, Served int64
	// Sampled counts service-time samples; BusyTime is their total duration.
	Sampled  int64
	BusyTime time.Duration
}

// ServedTotal reports the cumulative served-tuple count across the
// probe's lifetime, unaffected by Drain — used for load-skew diagnostics.
func (p *ExecutorProbe) ServedTotal() int64 {
	return p.servedTotal.Load()
}

// Drain atomically reads and resets the counters — the pull step of the
// paper's bi-layer collection.
func (p *ExecutorProbe) Drain() ProbeCounters {
	return ProbeCounters{
		Arrivals: p.arrivals.Swap(0),
		Served:   p.served.Swap(0),
		Sampled:  p.sampled.Swap(0),
		BusyTime: time.Duration(p.busyNanos.Swap(0)),
	}
}

// Merge adds o into c (operator-level aggregation across executors).
func (c *ProbeCounters) Merge(o ProbeCounters) {
	c.Arrivals += o.Arrivals
	c.Served += o.Served
	c.Sampled += o.Sampled
	c.BusyTime += o.BusyTime
}
