// Package topology describes an application's operator network: operators
// with per-processor service rates, external (outside-the-network) arrival
// streams, and directed edges carrying a selectivity — the average number
// of tuples an operator emits on that edge per input tuple it processes.
//
// The package solves the Jackson-network traffic equations
//
//	λ_i = λ_ext_i + Σ_j λ_j · S(j→i)
//
// by Gaussian elimination, which handles arbitrary digraphs including the
// splits, joins and feedback loops of the paper's Figure 2. A loop is
// admissible as long as its gain is below one (otherwise the traffic
// equations have no finite non-negative solution and Build/ArrivalRates
// report ErrInfeasible).
package topology

import (
	"errors"
	"fmt"
	"math"
)

// ErrInfeasible is returned when the traffic equations have no finite
// non-negative solution — typically a feedback loop with gain ≥ 1.
var ErrInfeasible = errors.New("topology: traffic equations infeasible (loop gain >= 1?)")

// ErrUnknownOperator is returned when an edge or query references an
// operator name that was never added.
var ErrUnknownOperator = errors.New("topology: unknown operator")

// Operator is one node of the operator network.
type Operator struct {
	// Name identifies the operator; unique within a topology.
	Name string
	// ServiceRate µ_i: mean tuples per second one processor completes.
	ServiceRate float64
	// ExternalRate λ_ext_i: mean tuples per second arriving at this
	// operator from outside the network (0 for non-source operators).
	ExternalRate float64
}

// Edge is a directed connection between two operators.
type Edge struct {
	// From and To are operator indices.
	From, To int
	// Selectivity is the mean number of tuples emitted on this edge per
	// input tuple processed at From. Probabilistic splits use values < 1;
	// fan-out amplification (e.g. features per video frame) uses values > 1.
	Selectivity float64
}

// Topology is an immutable operator network. Build one with a Builder.
type Topology struct {
	ops   []Operator
	edges []Edge
}

// Builder accumulates operators and edges and validates them into a Topology.
type Builder struct {
	ops   []Operator
	edges []Edge
	index map[string]int
	errs  []error
}

// NewBuilder returns an empty topology builder.
func NewBuilder() *Builder {
	return &Builder{index: make(map[string]int)}
}

// AddOperator registers an operator. serviceRate is µ_i (> 0);
// externalRate is λ_ext_i (≥ 0; 0 for operators fed only by other
// operators). Errors are accumulated and reported by Build.
func (b *Builder) AddOperator(name string, serviceRate, externalRate float64) *Builder {
	if name == "" {
		b.errs = append(b.errs, errors.New("topology: empty operator name"))
		return b
	}
	if _, dup := b.index[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("topology: duplicate operator %q", name))
		return b
	}
	if serviceRate <= 0 || math.IsNaN(serviceRate) || math.IsInf(serviceRate, 0) {
		b.errs = append(b.errs, fmt.Errorf("topology: operator %q: service rate %g must be positive and finite", name, serviceRate))
		return b
	}
	if externalRate < 0 || math.IsNaN(externalRate) || math.IsInf(externalRate, 0) {
		b.errs = append(b.errs, fmt.Errorf("topology: operator %q: external rate %g must be finite and >= 0", name, externalRate))
		return b
	}
	b.index[name] = len(b.ops)
	b.ops = append(b.ops, Operator{Name: name, ServiceRate: serviceRate, ExternalRate: externalRate})
	return b
}

// Connect adds an edge from → to with the given selectivity (> 0).
// Self-loops are allowed (the paper's FPD detector notifies itself).
func (b *Builder) Connect(from, to string, selectivity float64) *Builder {
	fi, ok := b.index[from]
	if !ok {
		b.errs = append(b.errs, fmt.Errorf("topology: edge %s->%s: %w %q", from, to, ErrUnknownOperator, from))
		return b
	}
	ti, ok := b.index[to]
	if !ok {
		b.errs = append(b.errs, fmt.Errorf("topology: edge %s->%s: %w %q", from, to, ErrUnknownOperator, to))
		return b
	}
	if selectivity <= 0 || math.IsNaN(selectivity) || math.IsInf(selectivity, 0) {
		b.errs = append(b.errs, fmt.Errorf("topology: edge %s->%s: selectivity %g must be positive and finite", from, to, selectivity))
		return b
	}
	b.edges = append(b.edges, Edge{From: fi, To: ti, Selectivity: selectivity})
	return b
}

// Build validates the accumulated network and returns it. The traffic
// equations are solved once here, so an infeasible loop fails fast.
func (b *Builder) Build() (*Topology, error) {
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	if len(b.ops) == 0 {
		return nil, errors.New("topology: no operators")
	}
	totalExt := 0.0
	for _, op := range b.ops {
		totalExt += op.ExternalRate
	}
	if totalExt <= 0 {
		return nil, errors.New("topology: no external arrivals (lambda0 = 0)")
	}
	t := &Topology{
		ops:   append([]Operator(nil), b.ops...),
		edges: append([]Edge(nil), b.edges...),
	}
	if _, err := t.ArrivalRates(); err != nil {
		return nil, err
	}
	return t, nil
}

// N reports the number of operators.
func (t *Topology) N() int { return len(t.ops) }

// Operator returns the i-th operator.
func (t *Topology) Operator(i int) Operator { return t.ops[i] }

// ExternalRate reports λ0, the total rate of tuples entering the network
// from outside.
func (t *Topology) ExternalRate() float64 {
	total := 0.0
	for _, op := range t.ops {
		total += op.ExternalRate
	}
	return total
}

// ArrivalRates solves the traffic equations and returns λ_i for every
// operator, in index order. The solution accounts for splits, joins and
// loops; it returns ErrInfeasible when no finite non-negative solution
// exists.
func (t *Topology) ArrivalRates() ([]float64, error) {
	n := len(t.ops)
	// Assemble A = I - Sᵀ and rhs = λ_ext, then solve A·λ = rhs.
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
		a[i][i] = 1
		a[i][n] = t.ops[i].ExternalRate
	}
	for _, e := range t.edges {
		a[e.To][e.From] -= e.Selectivity
	}
	lam, err := solveGauss(a)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	for i, l := range lam {
		if math.IsNaN(l) || math.IsInf(l, 0) || l < -1e-9 {
			return nil, fmt.Errorf("%w: operator %q solves to rate %g", ErrInfeasible, t.ops[i].Name, l)
		}
		if l < 0 {
			lam[i] = 0
		}
	}
	return lam, nil
}

// solveGauss solves the augmented system in place using Gaussian
// elimination with partial pivoting. a is n rows of n+1 columns.
func solveGauss(a [][]float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot: largest magnitude in this column at or below the diagonal.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return nil, fmt.Errorf("singular system at column %d", col)
		}
		a[col], a[piv] = a[piv], a[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := a[i][n]
		for j := i + 1; j < n; j++ {
			sum -= a[i][j] * x[j]
		}
		x[i] = sum / a[i][i]
	}
	return x, nil
}
