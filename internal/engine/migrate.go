package engine

// Task-migration planning. The paper's future-work reference [42] ("Optimal
// operator state migration for elastic data stream processing") observes
// that a rebalance should move as little operator state as possible. The
// engine's unit of state is the task, so the planner below computes a
// task→executor assignment for the new executor count that minimizes the
// number of tasks whose executor changes, subject to the balance constraint
// that executor loads differ by at most one task.
//
// The structure makes the optimum easy: with T tasks and n executors, every
// executor must hold ⌊T/n⌋ or ⌈T/n⌉ tasks. Keeping surviving executors'
// current tasks up to their new quota and redistributing only the overflow
// and the tasks of retired executors is optimal — any plan must move at
// least that much.

// planAssignment returns a new task->executor assignment for n executors,
// given the previous assignment over nOld executors (task index ->
// executor index). Executors 0..min(n,nOld)-1 are considered surviving;
// moved reports how many tasks changed executor.
func planAssignment(old []int, nOld, n int) (assign []int, moved int) {
	tasks := len(old)
	assign = make([]int, tasks)
	if n <= 0 {
		return assign, 0
	}
	base := tasks / n
	extra := tasks % n // the first `extra` executors get base+1 tasks
	quota := func(e int) int {
		if e < extra {
			return base + 1
		}
		return base
	}
	counts := make([]int, n)
	// Pass 1: keep tasks on their surviving executor while quota remains.
	var overflow []int
	for t, e := range old {
		if e >= 0 && e < n && counts[e] < quota(e) {
			assign[t] = e
			counts[e]++
		} else {
			assign[t] = -1
			overflow = append(overflow, t)
		}
	}
	// Pass 2: spread the overflow over executors with remaining quota.
	dst := 0
	for _, t := range overflow {
		for dst < n && counts[dst] >= quota(dst) {
			dst++
		}
		if dst == n {
			// All quotas met can only happen if tasks were miscounted;
			// fall back to round-robin to stay total.
			dst = 0
		}
		assign[t] = dst
		counts[dst]++
		moved++
	}
	return assign, moved
}

// naiveAssignment deals task t to executor t % n regardless of history: a
// bolt's first assignment, and the baseline the ablation benchmarks compare
// planAssignment against.
func naiveAssignment(old []int, n int) (assign []int, moved int) {
	assign = make([]int, len(old))
	for t := range assign {
		assign[t] = t % n
		if assign[t] != old[t] {
			moved++
		}
	}
	return assign, moved
}
