package core

import "math"

// This file exports reference implementations used by the repository's
// ablation benchmarks and by tests; production code paths never call them.

// AssignProcessorsScan runs the paper's literal Algorithm 1 formulation —
// a full δ_i rescan per increment, O(Kmax·N) — instead of the heap-based
// production implementation. Results are E[T]-equivalent.
//
//checkdoc:testonly reference: the heap-based AssignProcessors is tested and benchmarked against it
func AssignProcessorsScan(m *Model, kmax int) ([]int, error) {
	return m.assignProcessorsScan(kmax)
}

// BruteForceAssign enumerates every allocation of kmax processors and
// returns the best with its E[T]. Exponential in N; small instances only.
//
//checkdoc:testonly reference: Theorem 1's greedy optimality is tested against the exhaustive optimum
func BruteForceAssign(m *Model, kmax int) ([]int, float64, error) {
	return m.bruteForceAssign(kmax)
}

// NaiveAssignProcessors is the ablation baseline model: it treats an
// operator with k processors as a single server of rate k·µ (M/M/1), i.e.
// E[T_i] = 1/(k_i·µ_i − λ_i), and runs the same greedy allocation over
// that. The M/M/1 pooling fiction ignores that k slow servers are worse
// than one fast one, which distorts marginal benefits; the ablation test
// shows where its allocations lose to Algorithm 1 under the true M/M/k
// objective.
//
//checkdoc:testonly reference: the ablation baseline Algorithm 1 is tested to beat
func NaiveAssignProcessors(m *Model, kmax int) ([]int, error) {
	k, used, err := m.MinAllocation()
	if err != nil {
		return nil, err
	}
	if used > kmax {
		return nil, ErrInsufficientResources
	}
	naiveT := func(i, ki int) float64 {
		op := m.ops[i]
		denom := float64(ki)*op.Mu - op.Lambda
		if denom <= 0 {
			return math.Inf(1)
		}
		return 1 / denom
	}
	for used < kmax {
		best, bestDelta := -1, 0.0
		for i := range m.ops {
			d := m.ops[i].Lambda * (naiveT(i, k[i]) - naiveT(i, k[i]+1))
			if d > bestDelta {
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
