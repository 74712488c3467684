package core

import (
	"container/heap"
	"fmt"
	"math"
)

// AssignProcessors is Algorithm 1: distribute at most kmax processors over
// the model's operators to minimize the expected total sojourn time of
// Equation (3) (Program (4)). By convexity of each E[T_i](k_i) the greedy
// marginal-benefit strategy is exactly optimal (Theorem 1).
//
// This implementation keeps the per-operator marginal benefits in a max-heap,
// so it runs in O(N + Kmax·log N) instead of the paper's O(Kmax·N) rescan
// (assignProcessorsScan keeps the literal version for the ablation bench).
// It returns ErrInsufficientResources when even the minimum stable
// allocation exceeds kmax — the paper's "throw an exception" branch.
func (m *Model) AssignProcessors(kmax int) ([]int, error) {
	var h benefitHeap
	return m.assignProcessorsInto(nil, &h, kmax)
}

// assignProcessorsInto is AssignProcessors reusing a caller-held allocation
// buffer and heap — the controller's per-round path. The returned slice
// aliases buf when it had the capacity.
func (m *Model) assignProcessorsInto(buf []int, h *benefitHeap, kmax int) ([]int, error) {
	k, used, err := m.minAllocationInto(buf)
	if err != nil {
		return nil, err
	}
	if used > kmax {
		return nil, fmt.Errorf("%w: need %d, have %d", ErrInsufficientResources, used, kmax)
	}
	h.reset(m, k)
	for used < kmax {
		j, ok := h.popBest(m, k)
		if !ok {
			break // all remaining benefits are zero; extra processors are useless
		}
		k[j]++
		used++
	}
	return k, nil
}

// MinProcessors solves Program (6): the fewest processors whose allocation
// brings E[T] down to at most tmax. It grows the minimum stable allocation
// greedily by marginal benefit — the same exchange argument as Theorem 1
// proves each prefix of the greedy sequence is the best allocation of its
// size, so the first prefix that satisfies the constraint is optimal.
// It returns ErrUnreachableTarget when tmax is at or below the zero-queueing
// lower bound.
func (m *Model) MinProcessors(tmax float64) ([]int, error) {
	var h benefitHeap
	return m.minProcessorsInto(nil, &h, tmax)
}

// minProcessorsInto is MinProcessors reusing a caller-held allocation
// buffer and heap — the controller's per-round path. The returned slice
// aliases buf when it had the capacity.
func (m *Model) minProcessorsInto(buf []int, h *benefitHeap, tmax float64) ([]int, error) {
	if tmax <= 0 || math.IsNaN(tmax) {
		return nil, fmt.Errorf("core: tmax %g must be positive", tmax)
	}
	if tmax <= m.LowerBound() {
		return nil, fmt.Errorf("%w: tmax %g <= lower bound %g", ErrUnreachableTarget, tmax, m.LowerBound())
	}
	k, _, err := m.minAllocationInto(buf)
	if err != nil {
		return nil, err
	}
	h.reset(m, k)
	cur, err := m.ExpectedSojourn(k)
	if err != nil {
		return nil, err
	}
	for cur > tmax {
		j, ok := h.popBest(m, k)
		if !ok {
			return nil, fmt.Errorf("%w: benefits exhausted at E[T]=%g", ErrUnreachableTarget, cur)
		}
		// Apply the increment incrementally: Equation (3) is a λ-weighted
		// sum, so only operator j's term changes.
		delta := m.ops[j].Lambda * (m.OperatorSojourn(j, k[j]) - m.OperatorSojourn(j, k[j]+1))
		k[j]++
		cur -= delta / m.lambda0
	}
	return k, nil
}

// NeedAt is Program (6) at demand scale s: it re-points the receiver at
// base scaled by s (see Scale) and returns the total of MinProcessors(tmax)
// there — how many processors s times base's load needs to meet tmax. The
// receiver is the search's scratch: its rate storage, allocation vector
// and heap are reused, so a probe allocates nothing once warm.
func (m *Model) NeedAt(base *Model, s, tmax float64) (int, error) {
	if err := m.Scale(base, s); err != nil {
		return 0, err
	}
	k, err := m.minProcessorsInto(m.nbuf, &m.heap, tmax)
	if err != nil {
		return 0, err
	}
	m.nbuf = k
	return sum(k), nil
}

// MaxScale inverts Program (6) over demand: the largest scale s below hi
// with NeedAt(base, s, tmax) ≤ budget, for a hi that itself needs more
// than budget. Feasibility is monotone in s (every E[T_i] grows with λ_i
// at fixed k_i), so 40 halvings of [0, hi] pin the boundary far below
// measurement noise; each probe scales base afresh. A probe the model
// cannot price counts as infeasible. The receiver is scratch, as in NeedAt.
func (m *Model) MaxScale(base *Model, tmax float64, budget int, hi float64) float64 {
	lo := 0.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if mid <= 0 {
			break
		}
		if n, err := m.NeedAt(base, mid, tmax); err == nil && n <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Violates is the one judgment of "missing the target": the measured mean
// sojourn is above tmax, or Equation (3)'s estimate for alloc is. A
// non-positive tmax means no target, and an alloc the model cannot price
// (wrong length) is judged on the measurement alone.
func (m *Model) Violates(alloc []int, measured, tmax float64) bool {
	if tmax <= 0 {
		return false
	}
	if measured > tmax {
		return true
	}
	est, err := m.ExpectedSojourn(alloc)
	return err == nil && est > tmax
}

// benefitHeap is a max-heap over operator indices keyed by marginal benefit.
// Entries are lazily refreshed: when an operator is popped we recompute its
// benefit at the *current* k and re-push if it was stale. Because benefits
// only ever decrease (convexity), a popped entry whose stored benefit
// matches its fresh value is guaranteed maximal.
type benefitHeap struct {
	items []benefitItem
}

type benefitItem struct {
	op      int
	benefit float64
	atK     int // the k the benefit was computed at
}

// reset fills the heap with the operators' marginal benefits at allocation
// k, reusing the items storage from any previous use of the receiver.
func (h *benefitHeap) reset(m *Model, k []int) {
	h.items = h.items[:0]
	for i := range m.ops {
		b := m.marginalBenefit(i, k[i])
		if b > 0 {
			h.items = append(h.items, benefitItem{op: i, benefit: b, atK: k[i]})
		}
	}
	heap.Init(h)
}

// popBest returns the operator with the largest current marginal benefit,
// pushing back a refreshed entry for it computed at k[j]+1 (the state after
// the caller increments). Returns ok=false when no operator has positive
// benefit left.
func (h *benefitHeap) popBest(m *Model, k []int) (int, bool) {
	for h.Len() > 0 {
		top := h.items[0]
		if top.atK != k[top.op] {
			// Stale: recompute at the current k and reheapify.
			top.benefit = m.marginalBenefit(top.op, k[top.op])
			top.atK = k[top.op]
			if top.benefit <= 0 {
				heap.Pop(h)
				continue
			}
			h.items[0] = top
			heap.Fix(h, 0)
			continue
		}
		if top.benefit <= 0 {
			heap.Pop(h)
			continue
		}
		// Fresh and maximal: this is the greedy pick. Refresh in place for
		// the post-increment state.
		next := m.marginalBenefit(top.op, k[top.op]+1)
		if next > 0 {
			h.items[0] = benefitItem{op: top.op, benefit: next, atK: k[top.op] + 1}
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
		return top.op, true
	}
	return 0, false
}

// Len, Less, Swap, Push and Pop implement heap.Interface (max-heap).
func (h *benefitHeap) Len() int { return len(h.items) }

func (h *benefitHeap) Less(i, j int) bool { return h.items[i].benefit > h.items[j].benefit }

func (h *benefitHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

// Push appends x (required by heap.Interface).
func (h *benefitHeap) Push(x any) { h.items = append(h.items, x.(benefitItem)) }

// Pop removes and returns the last element (required by heap.Interface).
func (h *benefitHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// assignProcessorsScan is the paper's Algorithm 1 exactly as printed:
// every iteration recomputes δ_i for all operators and takes the argmax
// (lines 8-13). Kept for the heap-vs-scan ablation benchmark and as the
// oracle in tests; AssignProcessors is the production path.
func (m *Model) assignProcessorsScan(kmax int) ([]int, error) {
	k, used, err := m.MinAllocation()
	if err != nil {
		return nil, err
	}
	if used > kmax {
		return nil, fmt.Errorf("%w: need %d, have %d", ErrInsufficientResources, used, kmax)
	}
	for used < kmax {
		best, bestDelta := -1, 0.0
		for i := range m.ops {
			if d := m.marginalBenefit(i, k[i]); d > bestDelta {
				best, bestDelta = i, d
			}
		}
		if best < 0 {
			break
		}
		k[best]++
		used++
	}
	return k, nil
}

// bruteForceAssign enumerates every allocation of exactly kmax processors
// (or the minimum stable total, if larger allocations are all that fit) and
// returns the one minimizing E[T]. Exponential; used only by tests to
// verify Theorem 1 on small instances.
func (m *Model) bruteForceAssign(kmax int) ([]int, float64, error) {
	kmin, used, err := m.MinAllocation()
	if err != nil {
		return nil, 0, err
	}
	if used > kmax {
		return nil, 0, ErrInsufficientResources
	}
	best := append([]int(nil), kmin...)
	bestT, err := m.ExpectedSojourn(best)
	if err != nil {
		return nil, 0, err
	}
	cur := append([]int(nil), kmin...)
	n := len(cur)
	var rec func(i, remaining int)
	rec = func(i, remaining int) {
		if i == n-1 {
			cur[i] = kmin[i] + remaining
			if t, _ := m.ExpectedSojourn(cur); t < bestT {
				bestT = t
				copy(best, cur)
			}
			return
		}
		for extra := 0; extra <= remaining; extra++ {
			cur[i] = kmin[i] + extra
			rec(i+1, remaining-extra)
		}
	}
	rec(0, kmax-used)
	return best, bestT, nil
}
