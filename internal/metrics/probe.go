package metrics

import (
	"sync/atomic"
	"time"
)

// ExecutorProbe instruments one executor (one processor instance of an
// operator) with the paper's first sampling layer at Nm = 1: arrivals are
// counted at the tail of the input queue (Appendix C notes the position
// matters), and the service duration of every served tuple is recorded.
// All methods are safe for concurrent use; the executor folds a whole
// batch in a constant number of atomic adds.
type ExecutorProbe struct {
	arrivals    atomic.Int64
	served      atomic.Int64
	servedTotal atomic.Int64
	busyNanos   atomic.Int64
}

// NewExecutorProbe builds a probe.
func NewExecutorProbe() *ExecutorProbe { return &ExecutorProbe{} }

// TuplesArrived counts n tuples entering this executor's input queue in
// one batch — one atomic add for a whole batched enqueue.
func (p *ExecutorProbe) TuplesArrived(n int64) {
	p.arrivals.Add(n)
}

// TuplesServed folds a locally accumulated batch of observations in a
// constant number of atomic adds: served tuples and their total service
// duration.
func (p *ExecutorProbe) TuplesServed(served, busyNanos int64) {
	p.servedTotal.Add(served)
	p.served.Add(served)
	p.busyNanos.Add(busyNanos)
}

// ProbeCounters is one drained reading of a probe.
type ProbeCounters struct {
	// Arrivals and Served count tuples since the last drain.
	Arrivals, Served int64
	// BusyTime is the served tuples' total service duration.
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
		BusyTime: time.Duration(p.busyNanos.Swap(0)),
	}
}

// Merge adds o into c (operator-level aggregation across executors).
func (c *ProbeCounters) Merge(o ProbeCounters) {
	c.Arrivals += o.Arrivals
	c.Served += o.Served
	c.BusyTime += o.BusyTime
}
