package queueing

import "math"

// M/G/k extension (the paper's stated future work: "improving performance
// model accuracy with more sophisticated queuing theory").
//
// The plain model assumes exponential service. When the real service-time
// distribution has a squared coefficient of variation CV² ≠ 1 (lognormal
// frame costs, constant-cost kernels, ...), the Allen-Cunneen approximation
// corrects the queueing delay:
//
//	Wq(M/G/k) ≈ Wq(M/M/k) · (1 + CV²) / 2
//
// CV² = 1 recovers M/M/k exactly; CV² = 0 (deterministic service) halves
// the wait, matching the known M/D/1 result at k = 1.

// ExpectedWaitCorrected returns the Allen-Cunneen approximation of the
// expected queueing delay for arrival rate lambda, per-server service rate
// mu, k servers and service-time squared coefficient of variation cv2.
// Conventions follow ExpectedWait: +Inf when unstable, NaN on bad input.
func ExpectedWaitCorrected(lambda, mu float64, k int, cv2 float64) float64 {
	if cv2 < 0 || math.IsNaN(cv2) {
		return math.NaN()
	}
	w := ExpectedWait(lambda, mu, k)
	if math.IsNaN(w) || math.IsInf(w, 1) {
		return w
	}
	return w * (1 + cv2) / 2
}

// ExpectedSojournCorrected is ExpectedWaitCorrected plus the mean service
// time — Equation (1) with the Allen-Cunneen wait.
func ExpectedSojournCorrected(lambda, mu float64, k int, cv2 float64) float64 {
	w := ExpectedWaitCorrected(lambda, mu, k, cv2)
	if math.IsNaN(w) {
		return w
	}
	return w + 1/mu
}

// MarginalBenefitCorrected returns λ·(E[T](k) − E[T](k+1)) under the
// corrected sojourn: the decrease in the network-level objective of
// Equation (3) contributed by granting this operator one more server. By
// convexity of E[T](k) (Inequality (5)) it is non-negative and
// non-increasing in k, which is what makes the greedy allocation of
// Algorithm 1 exactly optimal (Theorem 1); the correction scales the
// (convex, decreasing) wait by a positive constant, so convexity is
// preserved. It returns +Inf when the operator is currently unstable (any
// finite improvement from infinity dominates) and 0 when k+1 is still
// unstable.
func MarginalBenefitCorrected(lambda, mu float64, k int, cv2 float64) float64 {
	cur := ExpectedSojournCorrected(lambda, mu, k, cv2)
	next := ExpectedSojournCorrected(lambda, mu, k+1, cv2)
	switch {
	case math.IsInf(next, 1):
		return 0
	case math.IsInf(cur, 1):
		return math.Inf(1)
	default:
		return lambda * (cur - next)
	}
}
