// Package core implements the paper's primary contribution: the DRS
// performance model (an Erlang/Jackson open-queueing-network estimator of
// expected total tuple sojourn time, §III-B), the exactly-optimal greedy
// resource allocators (Algorithm 1 for Program (4) and its dual for
// Program (6), §III-C), and the controller that drives re-scheduling
// decisions from live measurements (§IV).
package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/drs-repro/drs/internal/queueing"
	"github.com/drs-repro/drs/internal/topology"
)

// ErrDimensionMismatch is returned when an allocation vector's length does
// not match the model's operator count.
var ErrDimensionMismatch = errors.New("core: allocation length != number of operators")

// ErrInsufficientResources is the paper's Algorithm 1 exception: even the
// minimum stable allocation needs more processors than Kmax.
var ErrInsufficientResources = errors.New("core: Kmax below minimum stable allocation")

// ErrUnreachableTarget is returned by MinProcessors when no finite
// allocation can push E[T] down to Tmax (the target is at or below the
// zero-queueing lower bound Σ λ_i/µ_i / λ0).
var ErrUnreachableTarget = errors.New("core: Tmax unreachable for these rates")

// OpRates carries the measured steady-state rates of one operator: the
// inputs to Equation (1).
type OpRates struct {
	// Name identifies the operator (diagnostics only).
	Name string
	// Lambda is λ_i, the mean total arrival rate at the operator (tuples/s).
	Lambda float64
	// Mu is µ_i, the mean per-processor service rate (tuples/s).
	Mu float64
}

// Model is the DRS performance model of §III-B: per-operator M/M/k sojourn
// estimates aggregated over the Jackson network by Equation (3). Its
// queries never mutate it; Reset, Scale, NeedAt and MaxScale re-point it
// at other rates in place, reusing its storage — a module holds one Model
// per control round instead of building one per question — and must not
// run concurrently with any other use of the receiver.
type Model struct {
	lambda0 float64
	ops     []OpRates
	// nbuf and heap are NeedAt's Program (6) scratch, reused across the
	// probes of one search.
	nbuf []int
	heap benefitHeap
}

// NewModel builds a model directly from measured rates. lambda0 is λ0, the
// external arrival rate into the whole network.
func NewModel(lambda0 float64, ops []OpRates) (*Model, error) {
	m := &Model{}
	if err := m.Reset(lambda0, ops); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset re-points the model at a fresh snapshot's rates, validating them
// exactly as NewModel does and reusing the receiver's storage (ops is
// copied in, never retained). On error the receiver is unchanged.
func (m *Model) Reset(lambda0 float64, ops []OpRates) error {
	return m.reset(lambda0, ops, 1)
}

// Scale re-points the model at base's rates at demand scale s: λ0·s and
// every λ_i·s, the µ_i as they are — the traffic equations are linear in
// λ0, so this is the same network under s times the external load. It
// always multiplies base's rates, never the receiver's current ones, so
// the probes of a search do not compound rounding. The scaled rates are
// validated as Reset validates; on error the receiver is unchanged.
func (m *Model) Scale(base *Model, s float64) error {
	return m.reset(base.lambda0, base.ops, s)
}

// reset validates lambda0·s and ops with every λ_i·s, then copies them in.
func (m *Model) reset(lambda0 float64, ops []OpRates, s float64) error {
	lambda0 *= s
	if lambda0 <= 0 || math.IsNaN(lambda0) || math.IsInf(lambda0, 0) {
		return fmt.Errorf("core: lambda0 %g must be positive and finite", lambda0)
	}
	if len(ops) == 0 {
		return errors.New("core: no operators")
	}
	for i, op := range ops {
		if l := op.Lambda * s; l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("core: operator %d (%s): lambda %g invalid", i, op.Name, l)
		}
		if op.Mu <= 0 || math.IsNaN(op.Mu) || math.IsInf(op.Mu, 0) {
			return fmt.Errorf("core: operator %d (%s): mu %g invalid", i, op.Name, op.Mu)
		}
	}
	m.lambda0 = lambda0
	m.ops = append(m.ops[:0], ops...)
	for i := range m.ops {
		m.ops[i].Lambda *= s
	}
	return nil
}

// NewModelFromTopology derives a model from a topology description: the
// per-operator arrival rates come from solving the traffic equations, so
// splits, joins and loops are accounted for.
func NewModelFromTopology(t *topology.Topology) (*Model, error) {
	lam, err := t.ArrivalRates()
	if err != nil {
		return nil, err
	}
	ops := make([]OpRates, t.N())
	for i := range ops {
		op := t.Operator(i)
		ops[i] = OpRates{Name: op.Name, Lambda: lam[i], Mu: op.ServiceRate}
	}
	return NewModel(t.ExternalRate(), ops)
}

// N reports the number of operators.
func (m *Model) N() int { return len(m.ops) }

// Lambda0 reports λ0.
func (m *Model) Lambda0() float64 { return m.lambda0 }

// Rates returns a copy of the per-operator rates.
func (m *Model) Rates() []OpRates { return append([]OpRates(nil), m.ops...) }

// Ops returns the per-operator rates without copying: a read-only view,
// valid until the model is next re-pointed.
func (m *Model) Ops() []OpRates { return m.ops }

// OperatorSojourn returns E[T_i](k_i) of Equation (1) for operator i under
// k processors (+Inf when unstable).
func (m *Model) OperatorSojourn(i, k int) float64 {
	op := m.ops[i]
	return queueing.ExpectedSojourn(op.Lambda, op.Mu, k)
}

// ExpectedSojourn evaluates Equation (3): the expected total sojourn time
// of an external tuple under allocation k, as the λ-weighted average of the
// per-operator sojourns. It returns +Inf if any operator is unstable under
// its share of k.
func (m *Model) ExpectedSojourn(k []int) (float64, error) {
	if len(k) != len(m.ops) {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrDimensionMismatch, len(k), len(m.ops))
	}
	total := 0.0
	for i, op := range m.ops {
		if op.Lambda == 0 {
			continue
		}
		ti := m.OperatorSojourn(i, k[i])
		if math.IsInf(ti, 1) {
			return math.Inf(1), nil
		}
		total += op.Lambda * ti
	}
	return total / m.lambda0, nil
}

// LowerBound reports the infimum of E[T] over all allocations: the pure
// service time (1/λ0)·Σ λ_i/µ_i with all queueing delay optimized away.
// E[T] approaches but never reaches it with finite processors.
func (m *Model) LowerBound() float64 {
	total := 0.0
	for _, op := range m.ops {
		total += op.Lambda / op.Mu
	}
	return total / m.lambda0
}

// MinAllocation returns the smallest stable allocation (k_i = ⌊λ_i/µ_i⌋+1
// per operator) and its total.
func (m *Model) MinAllocation() ([]int, int, error) {
	return m.minAllocationInto(nil)
}

// minAllocationInto is MinAllocation writing into buf when it has the
// capacity — the controller's per-round path, which reuses one vector
// across rounds instead of allocating.
func (m *Model) minAllocationInto(buf []int) ([]int, int, error) {
	k := resizeInts(buf, len(m.ops))
	total := 0
	for i, op := range m.ops {
		ki, err := queueing.MinStableServers(op.Lambda, op.Mu)
		if err != nil {
			return nil, 0, fmt.Errorf("core: operator %d (%s): %w", i, op.Name, err)
		}
		k[i] = ki
		total += ki
	}
	return k, total, nil
}

// resizeInts returns buf resized to n, reallocating only when the capacity
// is short.
func resizeInts(buf []int, n int) []int {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int, n)
}

// marginalBenefit is δ_i of Algorithm 1 line 9: λ_i·(E[T_i](k_i) −
// E[T_i](k_i+1)), the drop in the Equation (3) numerator from granting
// operator i one more processor.
func (m *Model) marginalBenefit(i, k int) float64 {
	op := m.ops[i]
	return queueing.MarginalBenefit(op.Lambda, op.Mu, k)
}
